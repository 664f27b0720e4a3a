// Internal whole-file writers and process id, shared by the cell cache
// and the fleet's claim directory and worker loop. Not installed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace slpdas::core::detail {

/// The running process's id; 0 on platforms without getpid().
[[nodiscard]] std::int64_t current_pid();

/// Writes `bytes` to `path` whole: first to a unique temporary
/// `<path>.tmp.<pid>.<counter>`, then renamed over `path`. A reader never
/// sees a partial file, and concurrent writers of one path race benignly
/// (the last rename wins). `cache gc` and the claim-directory scan
/// recognise in-flight temporaries by their ".tmp." infix. Returns "" on
/// success; otherwise what failed ("cannot write <tmp>" or "cannot rename
/// <tmp> to <path>: <reason>"), with the temporary removed.
[[nodiscard]] std::string write_file_atomically(const std::string& path,
                                                std::string_view bytes);

/// Writes `bytes` to `path` whole unless `path` already exists: through
/// the same unique temporary, which is then link(2)ed to `path` (a link,
/// unlike a rename, never replaces its destination) and removed. Returns
/// true when this call created `path`, false when it already existed.
/// Throws std::runtime_error on any other failure, with the temporary
/// removed.
[[nodiscard]] bool write_file_exclusively(const std::string& path,
                                          std::string_view bytes);

}  // namespace slpdas::core::detail
