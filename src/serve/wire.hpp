#pragma once
/// \file wire.hpp
/// \brief Length-prefixed frame codec for the shard job/result protocol.
///
/// The ShardPool parent and its forked workers speak a binary protocol over
/// socketpair(AF_UNIX, SOCK_STREAM) pipes. Every message is one frame:
///
///   magic u32 | type u32 | payload_len u64 | payload_checksum u64 | payload
///
/// all little-endian, checksum = 64-bit FNV-1a of the payload bytes. The
/// decoder is defensive on every field -- bad magic, unknown type, an
/// oversize length or a checksum mismatch are *malformed* (the peer is
/// broken or the stream lost sync; the connection must be torn down), while
/// a frame whose bytes have not all arrived yet is simply *incomplete*.
/// Payload codecs (Scenario, JobReport, stats) are bit-exact round trips --
/// doubles travel as raw bit patterns, so the cross-process differential
/// oracle can demand bitwise-equal costs between sharded and single-process
/// runs.
///
/// Pure-buffer encode/decode are exposed separately from the fd I/O so the
/// codec is testable without forking anything.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/cache.hpp"
#include "serve/scheduler.hpp"
#include "util/metrics.hpp"

namespace updec::serve::wire {

enum class FrameType : std::uint32_t {
  kJob = 1,           ///< parent -> worker: run one scenario
  kResult = 2,        ///< worker -> parent: the finished JobReport
  kCancel = 3,        ///< parent -> worker: cancel the named in-flight job
  kShutdown = 4,      ///< parent -> worker: reply kStats, then _exit(0)
  kStatsRequest = 5,  ///< parent -> worker: reply kStats, keep serving
  kStats = 6,         ///< worker -> parent: metrics + cache stats snapshot
};

/// "UPW1" -- updec wire, format 1.
inline constexpr std::uint32_t kMagic = 0x31575055u;
inline constexpr std::size_t kHeaderBytes = 24;

struct Frame {
  FrameType type = FrameType::kJob;
  std::string payload;
};

[[nodiscard]] std::string encode_frame(const Frame& frame);

enum class DecodeStatus : std::uint8_t {
  kOk = 0,        ///< one whole frame decoded; `consumed` bytes used
  kNeedMore = 1,  ///< prefix of a valid frame; read more and retry
  kMalformed = 2, ///< stream is broken; `error` says how
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Frame frame;               ///< valid iff status == kOk
  std::size_t consumed = 0;  ///< bytes to drop from the buffer iff kOk
  std::string error;         ///< populated iff kMalformed
};

/// Decode the first frame of `buffer` (which may hold a partial frame or
/// several concatenated ones). Never throws.
[[nodiscard]] DecodeResult decode_frame(std::string_view buffer);

// ---- payload codecs ------------------------------------------------------
// decode_* throw updec::Error on truncated or out-of-range payloads.

/// One job dispatch: the scenario plus the scheduler-level policy the worker
/// must apply (the retry ladder runs INSIDE the worker, so backoff jitter
/// stays bit-identical to a single-process run).
struct JobFrame {
  std::uint64_t job_id = 0;
  double deadline_ms = 0.0;  ///< scheduler default; Scenario's own wins
  RetryPolicy retry;
  Scenario scenario;
};

[[nodiscard]] std::string encode_job(const JobFrame& job);
[[nodiscard]] JobFrame decode_job(std::string_view payload);

struct ResultFrame {
  std::uint64_t job_id = 0;
  JobReport report;
};

[[nodiscard]] std::string encode_result(const ResultFrame& result);
[[nodiscard]] ResultFrame decode_result(std::string_view payload);

struct CancelFrame {
  std::uint64_t job_id = 0;
};

[[nodiscard]] std::string encode_cancel(const CancelFrame& cancel);
[[nodiscard]] CancelFrame decode_cancel(std::string_view payload);

/// A worker's cumulative observability state since it was forked: every
/// metrics counter plus its OperatorCache stats. The parent merges deltas so
/// BENCH_*.json and the updec_serve report stay truthful under sharding.
struct StatsFrame {
  std::vector<metrics::CounterSample> counters;
  OperatorCache::Stats cache;
};

[[nodiscard]] std::string encode_stats(const StatsFrame& stats);
[[nodiscard]] StatsFrame decode_stats(std::string_view payload);

// ---- fd I/O --------------------------------------------------------------

/// Write one frame to a socket fd, looping over partial writes and EINTR
/// (SIGPIPE suppressed via MSG_NOSIGNAL). False iff the peer is gone or the
/// fd errored -- the caller reaps the worker.
bool write_frame_fd(int fd, const Frame& frame);

/// Buffered frame reader over one socket fd. The parent drives it from a
/// poll() loop (read_available + next_frame); the worker blocks on
/// read_blocking between jobs and drains opportunistically (poll_frame) from
/// inside its cancellation callback.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Pull whatever the socket has without blocking (MSG_DONTWAIT). Returns
  /// false iff the peer closed or errored (EOF).
  bool read_available();

  /// Decode the next complete frame out of the buffer, if any. Throws
  /// updec::Error on a malformed stream.
  [[nodiscard]] std::optional<Frame> next_frame();

  /// Block until one whole frame arrives. nullopt on clean EOF; throws
  /// updec::Error on a malformed stream.
  [[nodiscard]] std::optional<Frame> read_blocking();

  /// read_available() + next_frame() -- the non-blocking combination.
  [[nodiscard]] std::optional<Frame> poll_frame();

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
  std::string buffer_;
};

}  // namespace updec::serve::wire
