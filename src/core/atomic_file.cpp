#include "atomic_file.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace slpdas::core::detail {

std::int64_t current_pid() {
#ifdef _WIN32
  return 0;
#else
  return static_cast<std::int64_t>(::getpid());
#endif
}

std::string write_file_atomically(const std::string& path,
                                  std::string_view bytes) {
  // One counter per process, so (pid, counter) names a temporary no other
  // writer in any process can be using.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(current_pid()) +
                          "." + std::to_string(counter++);
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    written = out.good();
  }
  std::string failure;
  std::error_code ec;
  if (!written) {
    failure = "cannot write " + tmp;
  } else if (std::filesystem::rename(tmp, path, ec); ec) {
    failure = "cannot rename " + tmp + " to " + path + ": " + ec.message();
  }
  if (!failure.empty()) {
    std::filesystem::remove(tmp, ec);
  }
  return failure;
}

}  // namespace slpdas::core::detail
