#include "atomic_file.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace slpdas::core::detail {
namespace {

/// A temporary beside `path` that no other writer in any process can be
/// using: one counter per process, so (pid, counter) is unique.
[[nodiscard]] std::string temporary_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(current_pid()) + "." +
         std::to_string(counter++);
}

/// Writes `bytes` to `tmp`; false (with `tmp` removed) on failure.
[[nodiscard]] bool write_whole(const std::string& tmp,
                               std::string_view bytes) {
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    written = out.good();
  }
  if (!written) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  }
  return written;
}

}  // namespace

std::int64_t current_pid() {
#ifdef _WIN32
  return 0;
#else
  return static_cast<std::int64_t>(::getpid());
#endif
}

std::string write_file_atomically(const std::string& path,
                                  std::string_view bytes) {
  const std::string tmp = temporary_path(path);
  if (!write_whole(tmp, bytes)) {
    return "cannot write " + tmp;
  }
  std::error_code ec;
  if (std::filesystem::rename(tmp, path, ec); ec) {
    std::string failure =
        "cannot rename " + tmp + " to " + path + ": " + ec.message();
    std::filesystem::remove(tmp, ec);
    return failure;
  }
  return "";
}

bool write_file_exclusively(const std::string& path, std::string_view bytes) {
  const std::string tmp = temporary_path(path);
  if (!write_whole(tmp, bytes)) {
    throw std::runtime_error("cannot write " + tmp);
  }
  std::error_code link_ec;
  std::filesystem::create_hard_link(tmp, path, link_ec);
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
  if (link_ec == std::errc::file_exists) {
    return false;
  }
  if (link_ec) {
    throw std::runtime_error("cannot link " + tmp + " to " + path + ": " +
                             link_ec.message());
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

}  // namespace slpdas::core::detail
