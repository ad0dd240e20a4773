#include "wire/checksum.h"

#include <array>
#include <cstddef>

namespace gs::wire {
namespace {

constexpr std::uint32_t kPolynomial = 0x82F63B78u;  // reflected CRC-32C

// Slicing-by-8 tables: kTables[0] is the classic bytewise table; kTables[k]
// advances a byte's contribution through k further zero bytes, so eight
// lookups fold a whole 8-byte word into the state at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian by construction (assembled from bytes), so the result is
// the same on any host byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

}  // namespace

std::uint32_t crc32c_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = state ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n)
    state = (state >> 8) ^ kTables[0][(state ^ *p) & 0xFFu];
  return state;
}

std::uint32_t crc32c_finish(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  return crc32c_finish(crc32c_update(crc32c_init(), data));
}

}  // namespace gs::wire
