#include "net/payload.h"

#include <cstring>

#include "util/check.h"

namespace gs::net {
namespace {

// Recycled Reps per thread. Bounded so a pathological burst of in-flight
// frames does not pin memory forever; steady state cycles well below this.
constexpr std::size_t kMaxPooledReps = 1024;

thread_local bool g_cache_enabled = true;

}  // namespace

struct Payload::RepPool {
  std::vector<Rep*> free;

  ~RepPool() {
    for (auto* rep : free) delete rep;
  }
};

Payload::RepPool& Payload::pool() {
  thread_local RepPool p;
  return p;
}

Payload::Rep* Payload::acquire() {
  auto& free = pool().free;
  if (!free.empty()) {
    Rep* rep = free.back();
    free.pop_back();
    rep->refs = 1;
    return rep;
  }
  Rep* rep = new Rep();
  rep->owner = std::this_thread::get_id();
  return rep;
}

void Payload::recycle(Rep* rep) {
  if (rep->owner != std::this_thread::get_id()) {
    // Foreign release: the non-atomic refcount already made this a contract
    // violation, so be loud where we can watch for races (debug, TSan) and
    // merely safe where we cannot — deleting instead of pooling keeps the
    // Rep off this thread's free list, where a later acquire() would hand
    // out memory another thread may still be scrubbing.
#if GS_PAYLOAD_OWNER_CHECK
    GS_CHECK_MSG(false,
                 "Payload released on a thread other than its owner; "
                 "each thread must drive its own Farm");
#endif
    delete rep;
    return;
  }
  // Scrub the cached work but keep the allocations (spill capacity, the rep
  // itself) so reuse is allocation-free.
  rep->slot.reset();
  rep->verified_valid = false;
  rep->verified = {};
  rep->size = 0;
  rep->spill.clear();
  auto& free = pool().free;
  if (free.size() < kMaxPooledReps) {
    free.push_back(rep);
  } else {
    delete rep;
  }
}

Payload Payload::copy_of(std::span<const std::uint8_t> bytes) {
  Payload p;
  p.rep_ = acquire();
  p.rep_->size = static_cast<std::uint32_t>(bytes.size());
  if (bytes.size() <= kInlineCapacity) {
    if (!bytes.empty())
      std::memcpy(p.rep_->inline_buf, bytes.data(), bytes.size());
  } else {
    p.rep_->spill.assign(bytes.begin(), bytes.end());
  }
  return p;
}

Payload Payload::wrap(std::vector<std::uint8_t> bytes) {
  if (bytes.size() <= kInlineCapacity) return copy_of(bytes);
  Payload p;
  p.rep_ = acquire();
  p.rep_->size = static_cast<std::uint32_t>(bytes.size());
  p.rep_->spill = std::move(bytes);
  return p;
}

std::size_t Payload::size() const {
  return rep_ == nullptr ? 0 : rep_->size;
}

const std::uint8_t* Payload::data() const {
  return rep_ == nullptr ? nullptr : rep_->data();
}

void Payload::set_cache_enabled(bool enabled) { g_cache_enabled = enabled; }

bool Payload::cache_enabled() { return g_cache_enabled; }

std::size_t Payload::pool_size() { return pool().free.size(); }

void Payload::trim_pool() {
  auto& free = pool().free;
  for (auto* rep : free) delete rep;
  free.clear();
}

wire::VerifiedFrame Payload::verified() const {
  if (rep_ == nullptr) {
    wire::VerifiedFrame missing;
    missing.error = wire::FrameError::kTooShort;
    return missing;
  }
  if (!g_cache_enabled) return wire::verify_frame(bytes());
  if (!rep_->verified_valid) {
    rep_->verified = wire::verify_frame(bytes());
    rep_->verified_valid = true;
  }
  return rep_->verified;
}

std::span<const std::uint8_t> Payload::frame_payload() const {
  const wire::VerifiedFrame v = verified();
  if (!v.ok()) return {};
  return bytes().subspan(wire::kFrameHeaderSize, v.payload_size);
}

DecodeSlot* Payload::decode_slot() const {
  return rep_ == nullptr ? nullptr : &rep_->slot;
}

}  // namespace gs::net
