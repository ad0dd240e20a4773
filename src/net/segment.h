// Per-VLAN broadcast-domain properties: latency, loss, partitions.
//
// A Segment does not own adapters (the switch wiring defines membership at
// send time); it owns the *channel model* for one VLAN: base latency plus
// uniform jitter, i.i.d. Bernoulli loss per receiver, and an optional
// partition that splits the domain into non-communicating halves — the
// situation whose repair is the AMG merge protocol (§2.1). The same stream
// draws each receiver's processing delay δ (Fabric::set_processing_delay).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/time.h"
#include "util/ids.h"
#include "util/rng.h"

namespace gs::net {

struct ChannelModel {
  sim::SimDuration base_latency = sim::microseconds(200);
  sim::SimDuration jitter = sim::microseconds(100);  // uniform in [0, jitter]
  double loss_probability = 0.0;  // applied independently per receiver
  // Probability that a delivered frame arrives with one byte flipped, applied
  // independently per receiver. Zero (the default) draws no randomness, so
  // seeded schedules are bit-identical with the feature unused.
  double corrupt_probability = 0.0;
};

class Segment {
 public:
  Segment(util::VlanId vlan, ChannelModel model, util::Rng rng)
      : vlan_(vlan), model_(model), rng_(rng) {}

  [[nodiscard]] util::VlanId vlan() const { return vlan_; }

  [[nodiscard]] const ChannelModel& model() const { return model_; }
  void set_model(const ChannelModel& model) { model_ = model; }

  // Samples one delivery: latency if delivered, nullopt if lost.
  [[nodiscard]] std::optional<sim::SimDuration> sample_delivery() {
    if (rng_.chance(model_.loss_probability)) return std::nullopt;
    sim::SimDuration latency = model_.base_latency;
    if (model_.jitter > 0)
      latency += rng_.range(0, model_.jitter);
    return latency;
  }

  // Samples one receiver's processing delay δ: exponential with `mean`.
  // A mean of 0 returns 0 without a draw.
  [[nodiscard]] sim::SimDuration sample_processing(sim::SimDuration mean) {
    if (mean <= 0) return 0;
    return static_cast<sim::SimDuration>(
        rng_.exponential(static_cast<double>(mean)));
  }

  // Samples per-receiver corruption for a delivered frame. Only called when
  // corrupt_probability > 0, so the default model consumes no RNG draws.
  [[nodiscard]] bool sample_corruption() {
    return rng_.chance(model_.corrupt_probability);
  }

  // Which byte of a corrupted frame gets flipped.
  [[nodiscard]] std::size_t sample_corrupt_index(std::size_t frame_size) {
    return static_cast<std::size_t>(rng_.below(frame_size));
  }

  // --- Partitions -------------------------------------------------------
  // Adapters mapped to different part indices cannot exchange datagrams.
  // An unmapped adapter is in part 0.

  void partition(const std::vector<std::vector<util::AdapterId>>& parts) {
    part_of_.clear();
    for (std::size_t i = 0; i < parts.size(); ++i)
      for (util::AdapterId a : parts[i])
        part_of_[a] = static_cast<std::uint32_t>(i + 1);
    partitioned_ = true;
  }

  void heal() {
    part_of_.clear();
    partitioned_ = false;
  }

  [[nodiscard]] bool partitioned() const { return partitioned_; }

  [[nodiscard]] bool connected(util::AdapterId a, util::AdapterId b) const {
    if (!partitioned_) return true;
    return part_index(a) == part_index(b);
  }

 private:
  [[nodiscard]] std::uint32_t part_index(util::AdapterId a) const {
    auto it = part_of_.find(a);
    return it == part_of_.end() ? 0u : it->second;
  }

  util::VlanId vlan_;
  ChannelModel model_;
  util::Rng rng_;
  bool partitioned_ = false;
  std::unordered_map<util::AdapterId, std::uint32_t> part_of_;
};

}  // namespace gs::net
