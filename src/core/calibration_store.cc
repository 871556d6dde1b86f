#include "core/calibration_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <span>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/process_util.h"
#include "common/string_util.h"

namespace sfa::core {

namespace {

constexpr char kMagic[8] = {'S', 'F', 'A', 'N', 'U', 'L', 'L', 'D'};

uint64_t Fnv1a(const char* data, size_t n, uint64_t h = 0xcbf29ce484222325ULL) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, &v, sizeof v); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, &v, sizeof v); }

/// Bounds-checked little cursor over a loaded frame.
struct Reader {
  const char* data;
  size_t size;
  size_t pos = 0;

  bool Read(void* out, size_t n) {
    if (n > size - pos) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return Read(v, sizeof *v); }
  bool ReadU64(uint64_t* v) { return Read(v, sizeof *v); }
};

/// Zero bytes inserted between the key debug bytes and the world count so
/// the maxima array lands on an 8-byte boundary (the mmap path serves
/// doubles straight out of the mapping; the fixed prefix before the debug
/// bytes is 24 bytes, and the count field is 8, so only the debug length
/// perturbs alignment).
size_t FramePadLen(size_t debug_len) { return (8 - (debug_len % 8)) % 8; }

/// Offsets and metadata extracted by the structural frame parse.
struct ParsedFrame {
  size_t maxima_offset = 0;  ///< byte offset of the maxima array
  uint64_t num_worlds = 0;
  uint64_t worlds_requested = 0;
  uint32_t stop_reason_raw = 0;
};

/// Structural parse of a whole frame (magic, version, key identity, counts,
/// stop metadata, exact length) WITHOUT the checksum — the caller decides
/// whether the O(n) checksum is owed (full validation) or already vouched
/// for by the index signature. Returns nullptr on success, else the reject
/// reason.
const char* ParseFrameStructure(const char* data, size_t size,
                                const CalibrationKey& key, ParsedFrame* out) {
  if (size < sizeof kMagic + sizeof(uint32_t) + sizeof(uint64_t)) {
    return "truncated header";
  }
  Reader r{data, size - sizeof(uint64_t)};  // body sans checksum trailer
  char magic[sizeof kMagic];
  if (!r.Read(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return "bad magic";
  }
  uint32_t version = 0;
  if (!r.ReadU32(&version)) return "truncated version";
  if (version != CalibrationStore::kFormatVersion) {
    return "unsupported format version";
  }
  uint64_t key_hash = 0;
  if (!r.ReadU64(&key_hash)) return "truncated key hash";
  uint32_t debug_len = 0;
  if (!r.ReadU32(&debug_len)) return "truncated key";
  if (debug_len > r.size - r.pos) return "truncated key";
  if (key_hash != key.hash || debug_len != key.debug.size() ||
      std::memcmp(data + r.pos, key.debug.data(), debug_len) != 0) {
    return "frame belongs to a different calibration key";
  }
  r.pos += debug_len;
  const size_t pad = FramePadLen(debug_len);
  if (pad > r.size - r.pos) return "truncated padding";
  r.pos += pad;
  uint64_t num_worlds = 0;
  if (!r.ReadU64(&num_worlds)) return "truncated world count";
  if (num_worlds > (r.size - r.pos) / sizeof(double)) {
    return "truncated maxima";
  }
  out->maxima_offset = r.pos;
  out->num_worlds = num_worlds;
  r.pos += static_cast<size_t>(num_worlds) * sizeof(double);
  if (!r.ReadU64(&out->worlds_requested)) return "truncated stop metadata";
  if (!r.ReadU32(&out->stop_reason_raw)) return "truncated stop metadata";
  if (out->worlds_requested < num_worlds) {
    return "worlds_requested below completed world count";
  }
  if (out->stop_reason_raw >
      static_cast<uint32_t>(McStopReason::kCiAboveAlpha)) {
    return "unknown stop reason";
  }
  if (r.pos != r.size) return "trailing bytes";
  return nullptr;
}

/// FNV-1a over everything before the trailer, compared against the trailer.
bool FrameChecksumOk(const char* data, size_t size) {
  uint64_t checksum = 0;
  std::memcpy(&checksum, data + size - sizeof checksum, sizeof checksum);
  return Fnv1a(data, size - sizeof checksum) == checksum;
}

/// Closes a file descriptor on scope exit.
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

/// A stat timestamp on the filesystem clock — the value
/// std::filesystem::last_write_time reports for the same file, so fstat
/// signatures compare equal to the directory-listing ones BuildIndex seeds.
std::filesystem::file_time_type FileTime(const struct timespec& ts) {
  return std::chrono::file_clock::from_sys(
      std::chrono::sys_time<std::chrono::nanoseconds>(
          std::chrono::seconds(ts.tv_sec) +
          std::chrono::nanoseconds(ts.tv_nsec)));
}

/// Reads up to `size` bytes of `fd` into `out`; a file that shrank since
/// its fstat yields the shorter prefix (the frame parse rejects it). False
/// on a read error.
bool ReadFully(int fd, size_t size, std::string* out) {
  out->resize(size);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out->data() + got, size - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  out->resize(got);
  return true;
}

/// Writer pid embedded in a temp name "<frame>.tmp.<pid>.<ptr>.<nonce>";
/// 0 when the name doesn't parse (foreign temps are then judged on age).
int TempWriterPid(const std::string& filename) {
  const size_t tag = filename.find(".tmp.");
  if (tag == std::string::npos) return 0;
  return std::atoi(filename.c_str() + tag + 5);
}

/// Milliseconds since the file's mtime on the file clock, clamped >= 0.
double FileAgeMs(const std::filesystem::path& path, std::error_code& ec) {
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return 0.0;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::filesystem::file_time_type::clock::now() - mtime)
                        .count();
  return ms < 0.0 ? 0.0 : ms;
}

/// A file an oldest-first trim may delete.
struct AgedFile {
  std::filesystem::path path;
  uint64_t size = 0;
  std::filesystem::file_time_type mtime;
};

/// The regular files of `dir` whose names end in `suffix` ("" = all), with
/// their sizes and mtimes; files that vanish mid-listing are skipped. `ec`
/// reports a directory that cannot be listed.
std::vector<AgedFile> ListAgedFiles(const std::string& dir,
                                    std::string_view suffix,
                                    std::error_code& ec) {
  std::vector<AgedFile> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.path().native().ends_with(suffix)) continue;
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    AgedFile file;
    file.path = entry.path();
    file.size = entry.file_size(entry_ec);
    if (entry_ec) continue;  // raced a concurrent eviction/rename
    file.mtime = entry.last_write_time(entry_ec);
    if (entry_ec) continue;
    files.push_back(std::move(file));
  }
  return files;
}

/// What an oldest-first trim deleted.
struct TrimResult {
  uint64_t files = 0;
  uint64_t bytes = 0;
  std::vector<std::string> names;
};

/// Deletes `files` oldest mtime first — name breaks ties, so the order is
/// deterministic on filesystems with coarse timestamps — until their total
/// size fits `budget_bytes`.
TrimResult TrimOldestFirst(std::vector<AgedFile> files, uint64_t budget_bytes) {
  uint64_t total_bytes = 0;
  for (const AgedFile& file : files) total_bytes += file.size;
  std::sort(files.begin(), files.end(),
            [](const AgedFile& a, const AgedFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path.native() < b.path.native();
            });
  TrimResult result;
  for (const AgedFile& file : files) {
    if (total_bytes <= budget_bytes) break;
    std::error_code remove_ec;
    if (std::filesystem::remove(file.path, remove_ec) && !remove_ec) {
      ++result.files;
      result.bytes += file.size;
      result.names.push_back(file.path.filename().string());
    }
    // A failed or raced removal still reduces the accounted total: the goal
    // is a bounded directory, and the next sweep re-measures from disk.
    total_bytes -= file.size;
  }
  return result;
}

/// The file stem a key maps to, shared by its frame and its lease. Hash +
/// debug-hash: CalibrationKey equality compares both fields, so keys that
/// collide on the content hash alone still map to distinct files.
std::string KeyStem(const CalibrationKey& key) {
  const uint64_t debug_hash = Fnv1a(key.debug.data(), key.debug.size());
  return StrFormat("%016llx-%016llx", static_cast<unsigned long long>(key.hash),
                   static_cast<unsigned long long>(debug_hash));
}

}  // namespace

CalibrationStore::CalibrationStore(Options options)
    : options_(std::move(options)), backoff_rng_(options_.backoff_seed) {}

void CalibrationStore::BuildIndex() const {
  std::error_code ec;
  std::unique_lock<std::mutex> lock(mu_);
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    if (entry.path().extension() != ".nulldist") continue;
    std::error_code entry_ec;
    IndexEntry ie;
    ie.size = entry.file_size(entry_ec);
    if (entry_ec) continue;
    ie.mtime = entry.last_write_time(entry_ec);
    if (entry_ec) continue;
    index_.emplace(entry.path().filename().string(), std::move(ie));
  }
}

void CalibrationStore::RetireMappingLocked(IndexEntry* entry) const {
  if (entry->mapped == nullptr) return;
  --stats_.mmap_frames;
  stats_.mmap_bytes -= entry->mapped->file.size();
  entry->mapped.reset();
}

void CalibrationStore::ForgetIndexEntryLocked(
    const std::string& filename) const {
  auto it = index_.find(filename);
  if (it == index_.end()) return;
  RetireMappingLocked(&it->second);
  index_.erase(it);
}

void CalibrationStore::TouchForLru(const std::string& path) const {
  const std::string filename =
      std::filesystem::path(path).filename().string();
  const auto now = std::filesystem::file_time_type::clock::now();
  std::error_code touch_ec;
  // `store.touch` simulates a read-only directory/filesystem (tests run as
  // root, where chmod can't make the real touch fail).
  SFA_FAILPOINT_WITH("store.touch", {
    if (fp_action.kind == FailpointActionKind::kError) {
      touch_ec = std::make_error_code(std::errc::read_only_file_system);
    }
  });
  if (!touch_ec) std::filesystem::last_write_time(path, now, touch_ec);
  if (!touch_ec) {
    // Fold the touched mtime back into the signature (re-stat: the
    // filesystem may round the timestamp) so our own touch never reads as a
    // foreign rewrite on the next hit.
    std::error_code stat_ec;
    const auto mtime = std::filesystem::last_write_time(path, stat_ec);
    std::unique_lock<std::mutex> lock(mu_);
    auto it = index_.find(filename);
    if (it != index_.end() && !stat_ec) it->second.mtime = mtime;
    return;
  }
  // Read-only directory/filesystem: degrade to index-tracked in-memory
  // recency — EvictToBudget orders by max(mtime, last_used), so LRU still
  // works — and count the condition instead of retrying on the hit path.
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.touch_failures;
  auto it = index_.find(filename);
  if (it != index_.end()) it->second.last_used = now;
}

Result<std::unique_ptr<CalibrationStore>> CalibrationStore::Open(
    const Options& options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("calibration store directory is empty");
  }
  std::error_code ec;
  const std::filesystem::path dir(options.directory);
  if (!std::filesystem::exists(dir, ec)) {
    if (!options.create_if_missing) {
      return Status::NotFound(
          StrFormat("calibration store directory '%s' does not exist",
                    options.directory.c_str()));
    }
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::IOError(
          StrFormat("cannot create calibration store directory '%s': %s",
                    options.directory.c_str(), ec.message().c_str()));
    }
  } else if (!std::filesystem::is_directory(dir, ec)) {
    return Status::InvalidArgument(
        StrFormat("calibration store path '%s' is not a directory",
                  options.directory.c_str()));
  }
  auto store = std::unique_ptr<CalibrationStore>(new CalibrationStore(options));
  // Crash recovery runs on EVERY open (not only when sweep_on_open is set):
  // a restarted or peer process is exactly when orphans from a killed writer
  // must be cleared, and the sweep costs one directory listing.
  store->RecoverySweep();
  // Seed the in-memory index with the surviving frames' signatures so the
  // warm path never has to re-discover the directory; entries start
  // unvalidated (the first load of each frame still earns its checksum).
  store->BuildIndex();
  if (options.sweep_on_open && options.max_bytes > 0) {
    // Startup GC: bound a long-lived directory before serving from it.
    // max_bytes == 0 means unbounded, so the sweep is a no-op then —
    // EvictToBudget(0) would wipe every frame. A sweep failure is an IO
    // problem worth surfacing at Open time (the directory was just proven
    // accessible).
    auto evicted = store->EvictToBudget(options.max_bytes);
    if (!evicted.ok()) {
      return evicted.status().WithContext("startup eviction sweep");
    }
  }
  return store;
}

Result<uint64_t> CalibrationStore::EvictToBudget(uint64_t budget_bytes) const {
  SFA_FAILPOINT("store.evict");
  // Orphaned writer temps were invisible to the byte accounting (a worker
  // killed between fopen and rename leaked its .tmp.* forever); reap them
  // first, and keep quarantine/ inside its own budget after the frame sweep.
  SweepOrphanTemps();
  std::error_code ec;
  std::vector<AgedFile> frames =
      ListAgedFiles(options_.directory, ".nulldist", ec);
  if (ec) {
    return Status::IOError(
        StrFormat("cannot list calibration store directory '%s': %s",
                  options_.directory.c_str(), ec.message().c_str()));
  }

  // Frames whose LRU mtime touch failed (read-only filesystems) carry their
  // recency in the index instead; fold it in so they aren't unfairly evicted
  // as stale. file_time_type on both sides keeps the clocks comparable.
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (AgedFile& frame : frames) {
      auto it = index_.find(frame.path.filename().string());
      if (it != index_.end() && it->second.last_used > frame.mtime) {
        frame.mtime = it->second.last_used;
      }
    }
  }

  const TrimResult trimmed = TrimOldestFirst(std::move(frames), budget_bytes);
  if (trimmed.files > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.evicted_files += trimmed.files;
    stats_.evicted_bytes += trimmed.bytes;
    // Outstanding views over evicted frames stay valid (their shared backing
    // pins the pages); only the index forgets them.
    for (const std::string& name : trimmed.names) ForgetIndexEntryLocked(name);
  }
  EnforceQuarantineBudget();
  return trimmed.files;
}

void CalibrationStore::SweepOrphanTemps() const {
  std::error_code ec;
  uint64_t reaped = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") == std::string::npos) continue;
    const int writer = TempWriterPid(name);
    std::error_code age_ec;
    const double age_ms = FileAgeMs(entry.path(), age_ec);
    // Dead writer: reap immediately (the rename it never reached will never
    // come). Live or unknown writer: only past the grace window — a healthy
    // write's temp lives microseconds, so anything older is wedged, and the
    // worst case of a wrong guess is the writer's rename failing ENOENT,
    // which Store already treats as a retryable IOError.
    const bool orphaned =
        (writer > 0 && !ProcessAlive(writer)) ||
        (!age_ec && options_.temp_reap_grace_ms > 0.0 &&
         age_ms > options_.temp_reap_grace_ms);
    if (!orphaned) continue;
    std::error_code rm_ec;
    if (std::filesystem::remove(entry.path(), rm_ec) && !rm_ec) ++reaped;
  }
  if (reaped > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.temps_reaped += reaped;
  }
}

void CalibrationStore::EnforceQuarantineBudget() const {
  if (options_.quarantine_max_bytes == 0) return;
  std::error_code ec;
  std::vector<AgedFile> entries = ListAgedFiles(QuarantineDir(), "", ec);
  if (ec) return;  // missing/unreadable quarantine dir: nothing to bound
  const TrimResult trimmed =
      TrimOldestFirst(std::move(entries), options_.quarantine_max_bytes);
  if (trimmed.files > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.quarantine_evicted_files += trimmed.files;
    stats_.quarantine_evicted_bytes += trimmed.bytes;
  }
}

void CalibrationStore::RecoverySweep() const {
  SweepOrphanTemps();
  const uint64_t leases = ReclaimStaleLeases(LeaseDir(), options_.lease_ttl_ms);
  if (leases > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    stats_.leases_reclaimed += leases;
  }
  EnforceQuarantineBudget();
}

std::string CalibrationStore::FilePathFor(const CalibrationKey& key) const {
  return (std::filesystem::path(options_.directory) /
          (KeyStem(key) + ".nulldist"))
      .string();
}

std::string CalibrationStore::QuarantineDir() const {
  return (std::filesystem::path(options_.directory) / "quarantine").string();
}

std::string CalibrationStore::LeaseDir() const {
  return (std::filesystem::path(options_.directory) / "leases").string();
}

std::string CalibrationStore::LeasePathFor(const CalibrationKey& key) const {
  // Same stem as FilePathFor so a lease maps 1:1 to the frame it guards.
  return (std::filesystem::path(LeaseDir()) / (KeyStem(key) + ".lease"))
      .string();
}

Result<FileLease::AcquireOutcome> CalibrationStore::TryAcquireLease(
    const CalibrationKey& key) const {
  std::error_code ec;
  std::filesystem::create_directories(LeaseDir(), ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot create lease directory '%s': %s",
                                     LeaseDir().c_str(),
                                     ec.message().c_str()));
  }
  auto outcome =
      FileLease::TryAcquire(LeasePathFor(key), options_.lease_ttl_ms,
                            options_.lease_heartbeat_interval_ms);
  if (outcome.ok()) {
    std::unique_lock<std::mutex> lock(mu_);
    if (outcome->lease != nullptr) {
      ++stats_.leases_acquired;
      if (outcome->takeover) {
        ++stats_.lease_takeovers;
        ++stats_.leases_reclaimed;
      }
    } else {
      ++stats_.lease_contention;
    }
  }
  return outcome;
}

bool CalibrationStore::QuarantineFrame(const std::string& path) const {
  // Best-effort: losing the race to another process quarantining (or
  // re-storing over) the same frame is fine — the goal is merely that the
  // defective bytes stop being re-parsed on every load.
  std::error_code ec;
  const std::filesystem::path qdir(QuarantineDir());
  std::filesystem::create_directories(qdir, ec);
  if (ec) return false;
  const std::filesystem::path src(path);
  std::filesystem::rename(src, qdir / src.filename(), ec);
  return !ec;
}

Result<NullDistribution> CalibrationStore::Load(
    const CalibrationKey& key) const {
  return ReadFrame(key, /*want_view=*/false);
}

Result<NullDistributionView> CalibrationStore::LoadView(
    const CalibrationKey& key) const {
  return ReadFrame(key, /*want_view=*/true);
}

Result<NullDistribution> CalibrationStore::ReadFrame(const CalibrationKey& key,
                                                     bool want_view) const {
  const std::string path = FilePathFor(key);
  const std::string filename = std::filesystem::path(path).filename().string();

  {
    // Breaker open: the disk is presumed sick, so don't touch it at all.
    // NotFound keeps the cache's miss→recompute contract — memory-only
    // serving until a Store probe closes the breaker.
    std::unique_lock<std::mutex> lock(mu_);
    if (breaker_open_) {
      ++stats_.breaker_fast_fails;
      ++stats_.load_misses;
      return Status::NotFound("calibration store circuit breaker is open");
    }
  }
  SFA_FAILPOINT("store.load");

  // One open is the whole disk cost of a warm hit: fstat of the same
  // descriptor yields the (size, mtime) signature that detects
  // foreign-process rewrites, and any bytes still owed come from it too.
  const FdCloser fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (fd.fd < 0) {
    std::unique_lock<std::mutex> lock(mu_);
    ForgetIndexEntryLocked(filename);  // evicted/quarantined by a peer
    ++stats_.load_misses;
    return Status::NotFound("no persisted calibration for key");
  }
  struct stat st;
  if (::fstat(fd.fd, &st) != 0) {
    return Status::IOError(StrFormat("cannot stat calibration frame '%s': %s",
                                     path.c_str(), std::strerror(errno)));
  }
  const auto size = static_cast<uint64_t>(st.st_size);
  const auto mtime = FileTime(st.st_mtim);

  // Warm-hit gating: a frame this process already fully validated and whose
  // signature is unchanged is vouched for by the index. A vouched mapping
  // serves a view as is (no read, no checksum, no copy); a vouched read
  // skips the O(n) checksum. Signature drift retires the stale mapping —
  // outstanding views keep their pages.
  std::shared_ptr<const MappedFrame> frame;
  bool vouched = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = index_.find(filename);
    if (it != index_.end()) {
      IndexEntry& entry = it->second;
      vouched = entry.validated && entry.size == size && entry.mtime == mtime;
      if (entry.mapped != nullptr && !vouched) {
        if (want_view) ++stats_.remap_races;
        RetireMappingLocked(&entry);
      } else if (entry.mapped != nullptr && want_view) {
        frame = entry.mapped;
        ++stats_.index_hits;
        ++stats_.mmap_loads;
        ++stats_.load_hits;
      }
    }
  }

  std::vector<double> copy;
  uint64_t worlds_requested = 0;
  McStopReason stop_reason = McStopReason::kNone;
  if (frame == nullptr) {
    // The bytes: a fresh mapping when a view is wanted, else — or when
    // mapping fails, injected via `store.mmap` or real (exotic filesystems,
    // mapping limits) — a read buffer holding identical bytes.
    MmapFile mapping;
    std::string buffer;
    if (want_view) {
      bool map = true;
      SFA_FAILPOINT_WITH("store.mmap", {
        if (fp_action.kind == FailpointActionKind::kError) map = false;
      });
      if (map) {
        auto mapped = MmapFile::Map(fd.fd, size);
        if (mapped.ok()) mapping = std::move(*mapped);
      }
    }
    if (!mapping.mapped() && !ReadFully(fd.fd, size, &buffer)) {
      return Status::IOError(
          StrFormat("failed reading calibration frame '%s'", path.c_str()));
    }
    const char* data = mapping.mapped() ? mapping.data() : buffer.data();
    const size_t data_size = mapping.mapped() ? mapping.size() : buffer.size();

    // Validation failures all land here: quarantine the defective frame so
    // it is parsed (and rejected) at most once, count the rejection, and
    // report NotFound so the caller falls back to recompute.
    const auto reject = [&](const char* why) -> Status {
      const bool moved =
          options_.quarantine_rejects ? QuarantineFrame(path) : false;
      std::unique_lock<std::mutex> lock(mu_);
      ForgetIndexEntryLocked(filename);
      ++stats_.load_rejected;
      if (moved) ++stats_.quarantined;
      return Status::NotFound(StrFormat(
          "persisted calibration '%s' rejected: %s", path.c_str(), why));
    };
    ParsedFrame parsed;
    if (const char* why =
            ParseFrameStructure(data, data_size, key, &parsed)) {
      return reject(why);
    }
    // A fresh mapping serves every later hit on the index's word, so it
    // earns one full checksum even when a read already vouched for it.
    const bool checksum_needed = !vouched || mapping.mapped();
    if (checksum_needed && !FrameChecksumOk(data, data_size)) {
      return reject("checksum mismatch");
    }
    // The key check pins the offset at 32 + debug_len + pad: 8-aligned.
    SFA_CHECK(parsed.maxima_offset % alignof(double) == 0);
    worlds_requested = parsed.worlds_requested;
    stop_reason = static_cast<McStopReason>(parsed.stop_reason_raw);
    std::span<const double> maxima;
    if (mapping.mapped()) {
      maxima = {reinterpret_cast<const double*>(data + parsed.maxima_offset),
                static_cast<size_t>(parsed.num_worlds)};
    }
    // The mapping is read-only, so a hand-reordered frame cannot be
    // re-sorted in place; it is served as an owned copy instead, which the
    // NullDistribution ctor re-sorts.
    if (mapping.mapped() &&
        std::is_sorted(maxima.begin(), maxima.end(), std::greater<>())) {
      auto owned = std::make_shared<MappedFrame>();
      owned->maxima = maxima;
      owned->worlds_requested = worlds_requested;
      owned->stop_reason = stop_reason;
      owned->file = std::move(mapping);
      frame = std::move(owned);
    } else {
      copy.resize(parsed.num_worlds);
      if (!copy.empty()) {
        std::memcpy(copy.data(), data + parsed.maxima_offset,
                    copy.size() * sizeof(double));
      }
    }

    std::unique_lock<std::mutex> lock(mu_);
    IndexEntry& entry = index_[filename];
    if (entry.size != size || entry.mtime != mtime) {
      RetireMappingLocked(&entry);  // mapped from another generation
    }
    entry.size = size;
    entry.mtime = mtime;
    entry.validated = true;
    ++stats_.load_hits;
    if (!checksum_needed) ++stats_.index_hits;
    if (frame != nullptr) {
      ++stats_.mmap_loads;
      if (entry.mapped != nullptr) {
        frame = entry.mapped;  // a concurrent view mapped it first
      } else {
        entry.mapped = frame;
        ++stats_.mmap_frames;
        stats_.mmap_bytes += frame->file.size();
      }
    }
  }

  // LRU touch (best-effort): a served frame counts as recently used, so
  // EvictToBudget's mtime ordering approximates true LRU, not FIFO.
  TouchForLru(path);
  if (frame == nullptr) {
    // The ctor re-sorts descending — a no-op for a well-formed frame, and it
    // restores the class invariant if a hand-edited file reordered values.
    return NullDistribution(std::move(copy), worlds_requested, stop_reason);
  }
  // The aliasing shared_ptr pins the whole mapping for the view's lifetime;
  // POSIX keeps the pages valid even after the path is unlinked or renamed
  // over, so eviction/re-Store can never invalidate an outstanding view.
  return NullDistributionView(
      frame->maxima, std::shared_ptr<const void>(frame, frame.get()),
      frame->worlds_requested, frame->stop_reason);
}

Status CalibrationStore::Store(const CalibrationKey& key,
                               const NullDistribution& distribution) const {
  const auto now = [] { return std::chrono::steady_clock::now(); };

  // Breaker gate: while open, fail fast without touching the disk — except
  // that once the probe window has elapsed, exactly one caller is admitted
  // as a probe whose outcome decides whether the breaker closes.
  bool probing = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (breaker_open_) {
      if (!breaker_probing_ && now() >= breaker_probe_at_) {
        breaker_probing_ = probing = true;
      } else {
        ++stats_.breaker_fast_fails;
        return Status::ResourceExhausted(
            "calibration store circuit breaker is open");
      }
    }
  }

  // Bounded retry with exponential backoff + seeded jitter. Only IOError is
  // transient; any other code (e.g. an injected disk-full ResourceExhausted)
  // fails the call immediately so the breaker sees it sooner.
  Status last;
  for (uint32_t attempt = 0;; ++attempt) {
    if (attempt > 0) {
      double wait_ms = options_.backoff_initial_ms;
      for (uint32_t k = 1; k < attempt && wait_ms < options_.backoff_max_ms;
           ++k) {
        wait_ms *= 2.0;
      }
      wait_ms = std::min(wait_ms, options_.backoff_max_ms);
      {
        std::unique_lock<std::mutex> lock(mu_);
        wait_ms *= backoff_rng_.Uniform(0.5, 1.0);
        ++stats_.store_retries;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait_ms));
    }
    last = WriteFrameOnce(key, distribution);
    if (last.ok() || !last.IsIOError() || attempt >= options_.store_retries) {
      break;
    }
  }

  // Breaker verdict.
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (last.ok()) {
      consecutive_store_failures_ = 0;
      breaker_open_ = false;  // a successful probe (or write) closes it
      breaker_probing_ = false;
      ++stats_.stores;
      // A successful write starts a new frame generation: retire any
      // mapping of the replaced frame (readers still holding views keep
      // their pages; the next LoadView maps the new generation) and reset
      // the validation vouch — the first load still earns its checksum, so
      // bytes torn BELOW the write call (kernel/disk corruption, the
      // `store.write` corrupt drill) can never be served on the index's
      // word.
      const std::string filename =
          std::filesystem::path(FilePathFor(key)).filename().string();
      IndexEntry& entry = index_[filename];
      RetireMappingLocked(&entry);
      entry.validated = false;
    } else {
      ++stats_.store_failures;
      ++consecutive_store_failures_;
      if (probing) {
        // Failed probe: stay open, re-arm the probe timer.
        breaker_probing_ = false;
        breaker_probe_at_ =
            now() + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            options_.breaker_probe_after_ms));
      } else if (!breaker_open_ && options_.breaker_failure_threshold > 0 &&
                 consecutive_store_failures_ >=
                     options_.breaker_failure_threshold) {
        breaker_open_ = true;
        ++stats_.breaker_trips;
        breaker_probe_at_ =
            now() + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            options_.breaker_probe_after_ms));
      }
    }
  }
  return last;
}

Status CalibrationStore::WriteFrameOnce(
    const CalibrationKey& key, const NullDistribution& distribution) const {
  std::string frame;
  const std::span<const double> maxima = distribution.sorted_max();
  frame.reserve(64 + key.debug.size() + maxima.size() * sizeof(double));
  AppendRaw(&frame, kMagic, sizeof kMagic);
  AppendU32(&frame, kFormatVersion);
  AppendU64(&frame, key.hash);
  AppendU32(&frame, static_cast<uint32_t>(key.debug.size()));
  AppendRaw(&frame, key.debug.data(), key.debug.size());
  // v4: zero pad so the maxima array that follows the world count is
  // 8-aligned — the mmap path serves doubles in place.
  frame.append(FramePadLen(key.debug.size()), '\0');
  AppendU64(&frame, maxima.size());
  if (!maxima.empty()) {
    AppendRaw(&frame, maxima.data(), maxima.size() * sizeof(double));
  }
  // v3: adaptive-stop metadata. For full runs this is (size, kNone), so
  // every frame carries it and the loader needs no conditional layout.
  AppendU64(&frame, distribution.worlds_requested());
  AppendU32(&frame, static_cast<uint32_t>(distribution.stop_reason()));
  AppendU64(&frame, Fnv1a(frame.data(), frame.size()));

  // Torn-write drill hook: an error action fails this attempt (retryable);
  // truncate/corrupt damage the bytes that then land on disk "successfully" —
  // exactly the crash shape the Load checksum/quarantine path must absorb.
  SFA_FAILPOINT_MUTATE("store.write", &frame);

  const std::string path = FilePathFor(key);
  uint64_t nonce;
  {
    std::unique_lock<std::mutex> lock(mu_);
    nonce = ++temp_counter_;
  }
  // Same-directory temp + rename: rename(2) is atomic within a filesystem,
  // so concurrent readers never observe a partial frame. The temp name is
  // unique per (process, store instance, write) — pid included because two
  // processes sharing the directory can allocate stores at the same address
  // — so concurrent writers of one key never stomp each other's temp file.
  const std::string temp = StrFormat(
      "%s.tmp.%d.%p.%llu", path.c_str(), static_cast<int>(::getpid()),
      static_cast<const void*>(this), static_cast<unsigned long long>(nonce));

  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError(
        StrFormat("cannot open '%s' for writing", temp.c_str()));
  }
  const size_t written = std::fwrite(frame.data(), 1, frame.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != frame.size() || !flushed) {
    std::remove(temp.c_str());
    return Status::IOError(
        StrFormat("short write persisting calibration to '%s'", temp.c_str()));
  }
  SFA_FAILPOINT_WITH("store.rename", {
    if (fp_action.kind == FailpointActionKind::kError) {
      std::remove(temp.c_str());
      return fp_action.status;
    }
  });
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::remove(temp.c_str());
    return Status::IOError(StrFormat("cannot rename '%s' into '%s': %s",
                                     temp.c_str(), path.c_str(),
                                     ec.message().c_str()));
  }
  return Status::OK();
}

CalibrationStore::Stats CalibrationStore::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  snapshot.breaker_open = breaker_open_;
  return snapshot;
}

}  // namespace sfa::core
