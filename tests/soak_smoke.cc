// Randomized soak smoke: N seeded fault schedules on the oceano farm, each
// mixing node/adapter/switch faults, partitions, VLAN moves, and a forced
// GSC failover. Every run must end with zero invariant violations. On
// failure, shrinks the schedule and prints a minimal reproducing script.
//
// With --hier the runs use the two-level hierarchical farm instead: per-
// domain Centrals feeding a RootCentral over batched digests, with forced
// failover at BOTH levels (root tier and one domain's management tier) and
// the checker holding the root's aggregated tables to ground truth.
//
// Usage: soak_smoke [num_seeds] [first_seed] [--hier]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "farm/script.h"
#include "soak/runner.h"
#include "soak/shrink.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  bool hierarchical = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hier") == 0)
      hierarchical = true;
    else
      positional.push_back(argv[i]);
  }
  const int num_seeds = !positional.empty() ? std::atoi(positional[0]) : 25;
  const std::uint64_t first_seed =
      positional.size() > 1 ? std::strtoull(positional[1], nullptr, 10) : 1;

  auto options_for = [hierarchical](std::uint64_t seed) {
    gs::soak::SoakOptions opts;
    opts.seed = seed;
    if (hierarchical) opts.spec = gs::farm::FarmSpec::hierarchical(3, 4);
    return opts;
  };

  // One result slot per seed: every run owns its own Farm, and the report
  // below walks the slots in seed order whatever order the runs finished in.
  std::vector<gs::soak::SoakResult> results(
      static_cast<std::size_t>(std::max(num_seeds, 0)));
  gs::util::ThreadPool pool;
  pool.parallel_for(results.size(), [&](std::size_t i) {
    results[i] = gs::soak::run_soak(options_for(first_seed + i));
  });

  std::uint64_t traces_checked = 0;
  std::vector<std::size_t> failures;
  for (std::size_t i = 0; i < results.size(); ++i) {
    traces_checked += results[i].trace_records_checked;
    if (!results[i].passed()) failures.push_back(i);
  }

  if (failures.empty()) {
    std::printf("soak_smoke%s: %d seed(s) starting at %llu, 0 violations, "
                "%llu trace records checked\n", hierarchical ? " (hier)" : "",
                num_seeds, static_cast<unsigned long long>(first_seed),
                static_cast<unsigned long long>(traces_checked));
    return 0;
  }

  for (std::size_t i : failures) {
    const gs::soak::SoakResult& r = results[i];
    std::printf("=== seed %llu: %zu violation(s) ===\n%s",
                static_cast<unsigned long long>(first_seed + i),
                r.violations.size(),
                gs::soak::format_violations(r.violations).c_str());
    std::printf("--- schedule (%zu events) ---\n%s", r.schedule.size(),
                gs::farm::format_script(r.schedule).c_str());
  }

  // Shrink the lowest failing seed to a minimal reproducing schedule.
  const std::uint64_t seed = first_seed + failures.front();
  gs::soak::ShrinkResult shrunk = gs::soak::shrink_schedule_paired(
      results[failures.front()].schedule,
      gs::soak::make_soak_oracle(options_for(seed)));
  std::printf(
      "--- minimal reproduction for seed %llu (%zu event(s), %zu oracle "
      "run(s)%s) ---\n%s",
      static_cast<unsigned long long>(seed), shrunk.schedule.size(),
      shrunk.oracle_runs, shrunk.minimal ? "" : ", budget hit",
      gs::farm::format_script(shrunk.schedule).c_str());
  std::printf("replay: run_schedule with seed %llu and the script above\n",
              static_cast<unsigned long long>(seed));
  return 1;
}
