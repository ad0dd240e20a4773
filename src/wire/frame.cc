#include "wire/frame.h"

#include "wire/buffer.h"
#include "wire/checksum.h"

namespace gs::wire {

std::string_view to_string(FrameError err) {
  switch (err) {
    case FrameError::kNone: return "none";
    case FrameError::kTooShort: return "too-short";
    case FrameError::kBadMagic: return "bad-magic";
    case FrameError::kBadVersion: return "bad-version";
    case FrameError::kLengthMismatch: return "length-mismatch";
    case FrameError::kBadChecksum: return "bad-checksum";
  }
  return "?";
}

void begin_frame(Writer& w, std::uint16_t type) {
  w.clear();
  w.u32(kFrameMagic);
  w.u8(kWireVersion);
  w.u8(0);  // reserved
  w.u16(type);
  w.u32(0);  // length placeholder
  w.u32(0);  // crc placeholder
}

std::span<const std::uint8_t> finish_frame(Writer& w) {
  const auto length = static_cast<std::uint32_t>(w.size() - kFrameHeaderSize);
  w.patch_u32(8, length);
  // CRC over the whole frame while the crc field still holds zeros: the
  // "header with crc zeroed, then payload" rule verify_frame checks.
  std::uint32_t crc = crc32c_init();
  crc = crc32c_update(crc, w.bytes());
  crc = crc32c_finish(crc);
  w.patch_u32(12, crc);
  return w.bytes();
}

std::vector<std::uint8_t> encode_frame(std::uint16_t type,
                                       std::span<const std::uint8_t> payload) {
  Writer w(kFrameHeaderSize + payload.size());
  begin_frame(w, type);
  w.raw(payload);
  (void)finish_frame(w);
  return w.take();
}

VerifiedFrame verify_frame(std::span<const std::uint8_t> bytes) {
  VerifiedFrame result;
  if (bytes.size() < kFrameHeaderSize) {
    result.error = FrameError::kTooShort;
    return result;
  }
  Reader r(bytes);
  const std::uint32_t magic = r.u32();
  if (magic != kFrameMagic) {
    result.error = FrameError::kBadMagic;
    return result;
  }
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    result.error = FrameError::kBadVersion;
    return result;
  }
  r.skip(1);  // reserved
  const std::uint16_t type = r.u16();
  const std::uint32_t length = r.u32();
  const std::uint32_t stated_crc = r.u32();
  if (bytes.size() != kFrameHeaderSize + length) {
    result.error = FrameError::kLengthMismatch;
    return result;
  }

  // Recompute CRC with the crc field zeroed.
  std::uint8_t zeroed_header[kFrameHeaderSize];
  for (std::size_t i = 0; i < kFrameHeaderSize; ++i) zeroed_header[i] = bytes[i];
  for (std::size_t i = 12; i < 16; ++i) zeroed_header[i] = 0;
  std::uint32_t crc = crc32c_init();
  crc = crc32c_update(crc, std::span<const std::uint8_t>(zeroed_header));
  crc = crc32c_update(crc, bytes.subspan(kFrameHeaderSize));
  crc = crc32c_finish(crc);
  if (crc != stated_crc) {
    result.error = FrameError::kBadChecksum;
    return result;
  }

  result.type = type;
  result.payload_size = length;
  return result;
}

DecodeResult decode_frame(std::span<const std::uint8_t> bytes) {
  const VerifiedFrame verified = verify_frame(bytes);
  DecodeResult result;
  result.error = verified.error;
  if (verified.ok()) {
    result.frame.type = verified.type;
    result.frame.payload = bytes.subspan(kFrameHeaderSize);
  }
  return result;
}

}  // namespace gs::wire
