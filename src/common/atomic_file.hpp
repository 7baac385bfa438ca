// The one atomic file publish: the trace cache (sim::save_trace), the
// Chrome trace (obs::write_chrome_trace) and BENCH_<name>.json (BenchJson)
// all go through write_file_atomically. Header-only and std-only so obs,
// which sits below common, can include it without a link edge.
#pragma once

#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <system_error>

namespace repro {

/// Where write_file_atomically stages `path` before the rename.
inline std::string atomic_tmp_path(const std::string& path) {
  return path + ".tmp";
}

/// Streams `fill(out)` into atomic_tmp_path(path) (binary, truncated),
/// flushes, checks the stream and renames the result over `path`, so a
/// reader only ever sees the old file or the complete new one; a run killed
/// mid-write leaves at worst a stale tmp file. Returns an empty string on
/// success, else what failed; each caller picks its own failure policy.
template <class Fill>
std::string write_file_atomically(const std::string& path, Fill&& fill) {
  const std::string tmp = atomic_tmp_path(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return "cannot open " + tmp + " for writing";
    fill(static_cast<std::ostream&>(out));
    out.flush();
    if (!out.good()) return "write to " + tmp + " failed";
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return "cannot publish " + tmp + " -> " + path + ": " + ec.message();
  return {};
}

}  // namespace repro
