// Refcounted immutable datagram payloads with a decode-once cache.
//
// A multicast puts ONE frame on the segment regardless of fan-out, so the
// simulator models it with one shared buffer per unique payload. This class
// extends that sharing from the bytes to the work done on the bytes: the
// first receiver to look at a payload verifies the envelope (magic, version,
// length, CRC32C) and decodes the typed message; every later receiver of the
// same payload gets the cached result for free. The bytes themselves are
// immutable from the moment they leave the sending NIC — fault injection
// that corrupts a frame builds a fresh Payload for the affected receiver,
// never mutating (or consulting the cache of) the shared original.
//
// Allocation story: payloads at or under kInlineCapacity bytes (every
// heartbeat/ping/beacon-sized message) live in inline storage inside a
// pooled Rep; Reps are recycled through a thread-local free list, so steady
// state sends and receives without touching the heap. Larger payloads spill
// into a std::vector that is retained across recycles, amortising to zero
// as well. The refcount is non-atomic: each simulation is single-threaded
// and parallel harnesses (soak runner, bench trials) give every thread its
// own Farm, so a Rep never crosses threads.
//
// Each Rep remembers the thread that allocated it. Releasing the last
// reference on a different thread is a contract violation — the decrement
// itself raced, and pooling the Rep would plant it on the wrong thread-local
// free list. Debug and TSan builds abort on such a release; release builds
// delete the Rep instead of pooling it, so a foreign release that happened
// to be benign at least cannot corrupt a free list.
#pragma once

#include <cstdint>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "wire/frame.h"

// Owner-thread assertions on Payload release: on in debug builds and under
// ThreadSanitizer, compiled out of optimized release builds.
#ifndef GS_PAYLOAD_OWNER_CHECK
#if !defined(NDEBUG)
#define GS_PAYLOAD_OWNER_CHECK 1
#elif defined(__SANITIZE_THREAD__)
#define GS_PAYLOAD_OWNER_CHECK 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GS_PAYLOAD_OWNER_CHECK 1
#endif
#endif
#ifndef GS_PAYLOAD_OWNER_CHECK
#define GS_PAYLOAD_OWNER_CHECK 0
#endif
#endif

namespace gs::net {

// Type-erased slot holding the first successful (or failed) typed decode of
// a payload. Lives in net so the transport layer needs no knowledge of the
// protocol message structs; gs::proto::FrameRef supplies the typing.
class DecodeSlot {
 public:
  enum class State : std::uint8_t { kEmpty, kDecoded, kFailed };

  // Sized for the largest cached message (MembershipReport and its vectors'
  // headers); decode functions own any heap the message itself needs.
  static constexpr std::size_t kCapacity = 160;

  DecodeSlot() = default;
  ~DecodeSlot() { reset(); }
  DecodeSlot(const DecodeSlot&) = delete;
  DecodeSlot& operator=(const DecodeSlot&) = delete;

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint16_t tag() const { return tag_; }

  template <typename T>
  [[nodiscard]] const T* value() const {
    return std::launder(reinterpret_cast<const T*>(storage_));
  }

  // Runs `decode(T*)` into the slot. On success the slot caches the value
  // and returns it; on failure the slot remembers the failure for `tag` and
  // returns nullptr. Must only be called on an empty slot.
  template <typename T, typename Fn>
  const T* fill(std::uint16_t tag, Fn&& decode) {
    static_assert(sizeof(T) <= kCapacity, "grow DecodeSlot::kCapacity");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    tag_ = tag;
    T* obj = new (storage_) T();
    if (!decode(obj)) {
      obj->~T();
      state_ = State::kFailed;
      return nullptr;
    }
    destroy_ = [](void* p) { static_cast<T*>(p)->~T(); };
    state_ = State::kDecoded;
    return obj;
  }

  void reset() {
    if (destroy_ != nullptr) {
      destroy_(storage_);
      destroy_ = nullptr;
    }
    state_ = State::kEmpty;
    tag_ = 0;
  }

 private:
  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  void (*destroy_)(void*) = nullptr;
  State state_ = State::kEmpty;
  std::uint16_t tag_ = 0;
};

class Payload {
 public:
  // Payloads at or under this size (all steady-state traffic) are stored
  // inline in the pooled Rep; larger ones spill to a retained vector.
  static constexpr std::size_t kInlineCapacity = 128;

  Payload() = default;
  Payload(const Payload& other) : rep_(other.rep_) {
    if (rep_ != nullptr) ++rep_->refs;
  }
  Payload(Payload&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Payload& operator=(const Payload& other) {
    Payload copy(other);
    swap(copy);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    swap(other);
    return *this;
  }
  ~Payload() { unref(); }

  void swap(Payload& other) noexcept {
    Rep* tmp = rep_;
    rep_ = other.rep_;
    other.rep_ = tmp;
  }

  // Copies `bytes` into a pooled rep (memcpy into inline storage for small
  // frames). The canonical way to snapshot a scratch Writer's frame.
  [[nodiscard]] static Payload copy_of(std::span<const std::uint8_t> bytes);

  // Adopts an already-built vector; moves it into the rep's spill slot when
  // it exceeds the inline capacity, otherwise copies and drops it.
  [[nodiscard]] static Payload wrap(std::vector<std::uint8_t> bytes);

  [[nodiscard]] bool engaged() const { return rep_ != nullptr; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::uint8_t* data() const;
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data(), size()};
  }

  // Envelope verification, cached per unique payload: the first caller pays
  // the CRC + header parse, later callers read the stored result. With the
  // cache disabled every call re-verifies and the rep is left untouched.
  [[nodiscard]] wire::VerifiedFrame verified() const;

  // The frame body (bytes after the header) for a payload whose envelope
  // verified clean; empty span otherwise.
  [[nodiscard]] std::span<const std::uint8_t> frame_payload() const;

  // The shared typed-decode slot, or nullptr for a disengaged payload.
  [[nodiscard]] DecodeSlot* decode_slot() const;

  // True when this handle is the only reference to the rep (test hook).
  [[nodiscard]] bool unique() const {
    return rep_ != nullptr && rep_->refs == 1;
  }

  // Identity of the shared buffer, for tests asserting two datagrams share
  // (or do not share) one payload.
  [[nodiscard]] const void* identity() const { return rep_; }

  // Thread-local kill switch for the verification + decode caches, used by
  // the determinism pin to prove cached and uncached runs are byte-equal.
  static void set_cache_enabled(bool enabled);
  [[nodiscard]] static bool cache_enabled();

  // Thread-local rep pool introspection / reset (tests and benches).
  [[nodiscard]] static std::size_t pool_size();
  static void trim_pool();

 private:
  struct Rep {
    std::uint32_t refs = 1;
    std::uint32_t size = 0;
    bool verified_valid = false;
    wire::VerifiedFrame verified;
    DecodeSlot slot;
    std::thread::id owner;  // thread whose pool this Rep belongs to
    std::vector<std::uint8_t> spill;  // holds the bytes when size > inline
    alignas(8) std::uint8_t inline_buf[kInlineCapacity];

    [[nodiscard]] const std::uint8_t* data() const {
      return size <= kInlineCapacity ? inline_buf : spill.data();
    }
  };

  struct RepPool;
  [[nodiscard]] static RepPool& pool();
  [[nodiscard]] static Rep* acquire();
  static void recycle(Rep* rep);

  void unref() {
    if (rep_ != nullptr && --rep_->refs == 0) recycle(rep_);
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace gs::net
