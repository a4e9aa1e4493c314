#include "serve/wire.hpp"

#include <sys/socket.h>

#include <cerrno>

#include "serve/codec.hpp"
#include "util/error.hpp"

namespace updec::serve::wire {

namespace {

// The payload layouts, walked by Writer (encode) and Reader (decode) alike.
constexpr auto walk_job = [](auto& io, auto& job) {
  io(job.job_id);
  io(job.deadline_ms);
  for_each_field(job.retry, io);
  for_each_field(job.scenario, [&io](const FieldInfo&, auto& v) { io(v); });
};

constexpr auto walk_result = [](auto& io, auto& result) {
  io(result.job_id);
  for_each_field(result.report, io);
};

constexpr auto walk_cancel = [](auto& io, auto& cancel) { io(cancel.job_id); };

constexpr auto walk_stats = [](auto& io, auto& stats) {
  io(stats.counters);
  for_each_stat(io, stats.cache);
  io(stats.cache.by_class);
  for_each_stat(io, stats.cache.disk);
};

template <typename T, typename Walk>
std::string encode(const T& payload, Walk walk) {
  Writer w;
  walk(w, payload);
  return w.take();
}

template <typename T, typename Walk>
T decode(std::string_view bytes, Walk walk) {
  Reader r(bytes);
  T payload;
  walk(r, payload);
  r.finish();
  return payload;
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  Writer w;
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(frame.type));
  w.u64(frame.payload.size());
  w.u64(fnv1a64(frame.payload.data(), frame.payload.size()));
  std::string out = w.take();
  out.append(frame.payload);
  return out;
}

DecodeResult decode_frame(std::string_view buffer) {
  DecodeResult res;
  if (buffer.size() < kHeaderBytes) {
    res.status = DecodeStatus::kNeedMore;
    return res;
  }
  Reader header(buffer.substr(0, kHeaderBytes));
  const std::uint32_t magic = header.u32();
  if (magic != kMagic) {
    res.status = DecodeStatus::kMalformed;
    res.error = "bad magic";
    return res;
  }
  const std::uint32_t type = header.u32();
  if (type < 1 || type > 6) {
    res.status = DecodeStatus::kMalformed;
    res.error = "unknown frame type " + std::to_string(type);
    return res;
  }
  const std::uint64_t len = header.u64();
  if (len > kMaxPayloadBytes) {
    res.status = DecodeStatus::kMalformed;
    res.error = "payload length " + std::to_string(len) + " exceeds cap";
    return res;
  }
  if (buffer.size() - kHeaderBytes < len) {
    res.status = DecodeStatus::kNeedMore;
    return res;
  }
  const std::uint64_t want = header.u64();
  const std::uint64_t got = fnv1a64(buffer.data() + kHeaderBytes,
                                     static_cast<std::size_t>(len));
  if (want != got) {
    res.status = DecodeStatus::kMalformed;
    res.error = "payload checksum mismatch";
    return res;
  }
  res.status = DecodeStatus::kOk;
  res.frame.type = static_cast<FrameType>(type);
  res.frame.payload.assign(buffer.data() + kHeaderBytes,
                           static_cast<std::size_t>(len));
  res.consumed = kHeaderBytes + static_cast<std::size_t>(len);
  return res;
}

std::string encode_job(const JobFrame& job) { return encode(job, walk_job); }

JobFrame decode_job(std::string_view payload) {
  return decode<JobFrame>(payload, walk_job);
}

std::string encode_result(const ResultFrame& result) {
  return encode(result, walk_result);
}

ResultFrame decode_result(std::string_view payload) {
  return decode<ResultFrame>(payload, walk_result);
}

std::string encode_cancel(const CancelFrame& cancel) {
  return encode(cancel, walk_cancel);
}

CancelFrame decode_cancel(std::string_view payload) {
  return decode<CancelFrame>(payload, walk_cancel);
}

std::string encode_stats(const StatsFrame& stats) {
  return encode(stats, walk_stats);
}

StatsFrame decode_stats(std::string_view payload) {
  return decode<StatsFrame>(payload, walk_stats);
}

bool write_frame_fd(int fd, const Frame& frame) {
  const std::string bytes = encode_frame(frame);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: peer is gone, EAGAIN cannot happen
                     // on a blocking socket end
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool FrameReader::read_available() {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof chunk) return true;
      continue;  // socket may hold more
    }
    if (n == 0) return false;  // clean EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // hard error: treat like EOF, caller reaps
  }
}

std::optional<wire::Frame> FrameReader::next_frame() {
  const DecodeResult res = decode_frame(buffer_);
  switch (res.status) {
    case DecodeStatus::kNeedMore:
      return std::nullopt;
    case DecodeStatus::kMalformed:
      throw Error("wire: malformed frame: " + res.error);
    case DecodeStatus::kOk:
      break;
  }
  buffer_.erase(0, res.consumed);
  return res.frame;
}

std::optional<wire::Frame> FrameReader::read_blocking() {
  for (;;) {
    if (auto frame = next_frame()) return frame;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return std::nullopt;  // clean EOF
    if (errno == EINTR) continue;
    return std::nullopt;  // hard error: same as EOF for the caller
  }
}

std::optional<wire::Frame> FrameReader::poll_frame() {
  if (auto frame = next_frame()) return frame;
  // On EOF whatever is buffered may still hold whole frames; after that the
  // caller sees nullopt forever and handles the EOF elsewhere.
  (void)read_available();
  return next_frame();
}

}  // namespace updec::serve::wire
