#include "fault/checkpoint.h"

#include <cstring>
#include <fstream>

#include "base/log.h"

namespace swcaffe::fault {

namespace {

constexpr char kMagic[8] = {'S', 'W', 'F', 'C', 'K', 'P', 'T', '\0'};

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
}

void write_floats(std::ostream& os, const std::vector<float>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

/// Bytes between the read position and the end of the stream.
std::uint64_t bytes_left(std::istream& is) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  return static_cast<std::uint64_t>(end - here);
}

/// Reads a length word and checks that that many items of `item_bytes` each
/// fit in what is left of the file, before anything is allocated for them.
std::uint64_t read_length(std::istream& is, const char* what,
                          std::size_t item_bytes, const std::string& path) {
  std::uint64_t n = 0;
  read_pod(is, n);
  SWC_CHECK_MSG(is.good(), "checkpoint: truncated file: " << path);
  const std::uint64_t left = bytes_left(is);
  SWC_CHECK_MSG(n <= left / item_bytes,
                "checkpoint: " << what << " length " << n << " needs " << n
                               << " x " << item_bytes << " bytes; only "
                               << left << " are left in " << path);
  return n;
}

std::vector<float> read_floats(std::istream& is, const char* what,
                               const std::string& path) {
  const std::uint64_t n = read_length(is, what, sizeof(float), path);
  std::vector<float> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(float)));
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is, const char* what,
                        const std::string& path) {
  const std::uint64_t len = read_length(is, what, 1, path);
  std::string s(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  SWC_CHECK_MSG(is.good(), "checkpoint: truncated file: " << path);
  return s;
}

}  // namespace

std::string checkpoint_path(const std::string& prefix, const std::string& job,
                            std::int64_t iter) {
  if (job.empty()) return prefix + "." + std::to_string(iter);
  return prefix + "." + job + ".ckpt." + std::to_string(iter);
}

void save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  std::ofstream os(path, std::ios::binary);
  SWC_CHECK_MSG(os.is_open(), "checkpoint: cannot open " << path);
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kCheckpointVersion);
  write_pod(os, ckpt.iter);
  write_pod(os, ckpt.fault_seed);
  write_floats(os, ckpt.params);
  write_pod(os, static_cast<std::uint64_t>(ckpt.history.size()));
  for (const auto& h : ckpt.history) write_floats(os, h);
  write_floats(os, ckpt.stale_grad);
  write_pod(os, ckpt.stale_count);
  write_string(os, ckpt.plan_cache);
  write_string(os, ckpt.job_id);
  SWC_CHECK_MSG(os.good(), "checkpoint: write failed: " << path);
}

Checkpoint load_checkpoint(const std::string& path,
                           const std::string& expected_job) {
  std::ifstream is(path, std::ios::binary);
  SWC_CHECK_MSG(is.is_open(), "checkpoint: cannot open " << path);
  char magic[sizeof(kMagic)] = {};
  is.read(magic, sizeof(magic));
  SWC_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                "checkpoint: " << path << " is not a swfault checkpoint");
  std::uint32_t version = 0;
  read_pod(is, version);
  SWC_CHECK_MSG(version >= 1 && version <= kCheckpointVersion,
                "checkpoint: " << path << " has version " << version
                               << ", this build reads <= "
                               << kCheckpointVersion);
  Checkpoint ckpt;
  read_pod(is, ckpt.iter);
  read_pod(is, ckpt.fault_seed);
  ckpt.params = read_floats(is, "params", path);
  // Every history vector carries at least its own 8-byte length word.
  const std::uint64_t n_hist =
      read_length(is, "history", sizeof(std::uint64_t), path);
  ckpt.history.reserve(n_hist);
  for (std::uint64_t i = 0; i < n_hist; ++i) {
    ckpt.history.push_back(read_floats(is, "history", path));
  }
  ckpt.stale_grad = read_floats(is, "stale gradient", path);
  read_pod(is, ckpt.stale_count);
  ckpt.plan_cache = read_string(is, "plan-cache path", path);
  // Version 1 files end here: their job id stays empty (single-job legacy).
  if (version >= 2) ckpt.job_id = read_string(is, "job id", path);
  SWC_CHECK_MSG(is.good(), "checkpoint: truncated file: " << path);
  SWC_CHECK_MSG(expected_job.empty() || ckpt.job_id == expected_job,
                "checkpoint: " << path << " belongs to job '" << ckpt.job_id
                               << "', not '" << expected_job
                               << "'; refusing to resume another job's state");
  return ckpt;
}

}  // namespace swcaffe::fault
