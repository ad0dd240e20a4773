// Frame layout for every GulfStream datagram.
//
//   offset  size  field
//   0       4     magic   "GSF1"
//   4       1     version (kWireVersion)
//   5       1     reserved (0)
//   6       2     type    (protocol-defined message type)
//   8       4     payload length
//   12      4     crc32c over bytes [0, 12) with crc field zeroed, then
//                 payload
//   16      n     payload
//
// verify_frame() rejects bad magic, unsupported version, length mismatch, and CRC
// failure with a typed error so the fabric's corruption-injection tests can
// assert the exact rejection reason.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace gs::wire {

constexpr std::uint32_t kFrameMagic = 0x31465347u;  // "GSF1" little-endian
constexpr std::uint8_t kWireVersion = 1;
constexpr std::size_t kFrameHeaderSize = 16;

enum class FrameError : std::uint8_t {
  kNone = 0,
  kTooShort,
  kBadMagic,
  kBadVersion,
  kLengthMismatch,
  kBadChecksum,
};

[[nodiscard]] std::string_view to_string(FrameError err);

// Zero-copy view of a decoded frame: `payload` aliases the datagram bytes
// passed to decode_frame and is valid only while those bytes live.
struct FrameView {
  std::uint16_t type = 0;
  std::span<const std::uint8_t> payload;
};

class Writer;

// The one frame writer. Allocation-free framing onto a reusable scratch
// Writer: begin_frame rewinds the writer and emits the header with zeroed
// length/crc, the caller appends the payload, finish_frame patches both
// fields and returns the finished frame.
void begin_frame(Writer& w, std::uint16_t type);
[[nodiscard]] std::span<const std::uint8_t> finish_frame(Writer& w);

// Serializes type+payload into a complete datagram in its own buffer
// (begin_frame + payload + finish_frame).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::uint16_t type, std::span<const std::uint8_t> payload);

// Envelope verification result, expressed as offsets rather than pointers
// so it can be cached beside refcounted payload bytes that may be pooled.
struct VerifiedFrame {
  FrameError error = FrameError::kNone;
  std::uint16_t type = 0;
  std::uint32_t payload_size = 0;

  [[nodiscard]] bool ok() const { return error == FrameError::kNone; }
};

// Validates magic/version/length/CRC without copying the payload.
[[nodiscard]] VerifiedFrame verify_frame(std::span<const std::uint8_t> bytes);

struct DecodeResult {
  FrameError error = FrameError::kNone;
  FrameView frame;

  [[nodiscard]] bool ok() const { return error == FrameError::kNone; }
};

// verify_frame plus a FrameView into `bytes` (no payload copy).
[[nodiscard]] DecodeResult decode_frame(std::span<const std::uint8_t> bytes);

}  // namespace gs::wire
