// Chaos soak harness (PR 4): live chain + reorgs + fault injection + bundle
// traffic, all at once, checked against the robustness invariants.
//
// One soak run drives a seeded single-producer interleaving of
//   engine.submit(bundle)  and  node.tick(block_txs)
// against a NodeSimulator on a reorg schedule, with a PR 2 FaultPlan
// corrupting the ORAM backend underneath, then settles everything with a
// final resync() + drain(). The run must satisfy, with zero violations:
//
//   I1  exactly one outcome per submitted bundle id (no drops, no dupes);
//   I2  no outcome stands against an orphaned root: every nonzero
//       state_root is canonical at drain time, and a zero state_root only
//       appears on refusals that never executed (kUnavailable / kStale);
//   I3  the ORAM store is never ahead of its commit: max page epoch <=
//       committed store epoch;
//   I4  replay determinism: the identical seeded interleaving at 1 worker
//       and at 8 workers resolves every bundle bit-identically;
//   I5  chaos coverage: the schedule actually reorged (otherwise the soak
//       proved nothing) whenever reorgs were requested.
//
// A baseline phase (no ticks, no faults) additionally holds the engine
// bit-identical to execute_serial(), pinning the PR 1 contract.
//
// Usage: bench_soak [--bundles N] [--blocks N] [--reorg-rate R]
//                   [--reorg-depth D] [--fault-rate R] [--seed S] [--out FILE]
// Writes BENCH_soak.json. Exit 1 on any invariant violation.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "faults/fault_plan.hpp"
#include "service/engine.hpp"

using namespace hardtape;

namespace {

struct SoakOptions {
  size_t bundles = 200;
  size_t blocks = 50;
  double reorg_rate = 0.25;
  int reorg_depth = 3;  // acceptance cap: <= 4
  double fault_rate = 0.01;
  uint64_t seed = 0x50a7;
  std::string out_path = "BENCH_soak.json";
};

struct SoakRun {
  std::vector<service::SessionOutcome> outcomes;
  service::EngineMetrics metrics;
  uint64_t reorgs = 0;
  uint64_t head_number = 0;
  uint64_t store_epoch = 0;
  uint64_t max_page_epoch = 0;
  std::vector<std::string> violations;
};

service::EngineConfig soak_config(int workers, faults::FaultPlan* plan) {
  service::EngineConfig config;
  config.security = service::SecurityConfig::full();
  config.num_hevms = workers;
  config.queue_depth = 16;
  config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 8192,
                                 .max_stash_blocks = 512};
  config.perform_channel_crypto = false;
  config.fault_plan = plan;
  // The breaker counts CONSECUTIVE faulted attempts, which depends on how
  // workers interleave completions — disable it so the 1-vs-8 comparison
  // (I4) exercises only the deterministic paths. Faults still resolve
  // per-bundle via requeue + terminal statuses.
  config.breaker_threshold = 0;
  config.max_head_lag = 2;
  return config;
}

// One full soak pass. Everything here is a function of (opts, workers-free
// inputs): the node, workload, schedule, fault plan, and the interleaving
// are rebuilt from the same seeds, so two calls differ only in pool width.
SoakRun run_soak(const SoakOptions& opts, int workers) {
  node::NodeSimulator node;
  workload::WorkloadGenerator gen(workload::GeneratorConfig{
      .seed = opts.seed,
      .user_accounts = 16,
      .erc20_contracts = 8,
      .dex_pairs = 4,
      .routers = 4,
      .txs_per_block = 8,
  });
  gen.deploy(node.world());
  node.produce_block({});
  node.set_schedule({.seed = opts.seed ^ 0xb10c,
                     .reorg_rate = opts.reorg_rate,
                     .max_reorg_depth = opts.reorg_depth});

  // Source both bundle traffic and block traffic from the generator's
  // evaluation set — deterministic, and block txs mutate accounts the
  // bundles read, so reorgs genuinely change outcomes.
  const size_t txs_needed = opts.bundles + opts.blocks;
  const auto blocks = gen.generate_evaluation_set(txs_needed / 8 + 2);
  std::vector<evm::Transaction> txs;
  for (const auto& block : blocks) txs.insert(txs.end(), block.begin(), block.end());

  faults::FaultPlanConfig fault_config;
  fault_config.seed = opts.seed ^ 0xfa17;
  fault_config.fault_rate = opts.fault_rate;
  fault_config.weight_stale_proof = 0;  // keep sync/delta passes clean
  faults::FaultPlan plan(fault_config);

  service::PreExecutionEngine engine(
      node, soak_config(workers, opts.fault_rate > 0 ? &plan : nullptr));
  SoakRun run;
  if (engine.synchronize() != Status::kOk) {
    run.violations.push_back("initial synchronize() failed");
    return run;
  }
  engine.start();

  const size_t tick_every = std::max<size_t>(1, opts.bundles / std::max<size_t>(1, opts.blocks));
  size_t ticks_done = 0;
  for (size_t i = 0; i < opts.bundles; ++i) {
    engine.submit({txs[i % txs.size()]});
    if ((i + 1) % tick_every == 0 && ticks_done < opts.blocks) {
      node.tick({txs[(opts.bundles + ticks_done) % txs.size()]});
      ++ticks_done;
    }
  }
  while (ticks_done < opts.blocks) {  // late blocks orphan settled outcomes
    node.tick({txs[(opts.bundles + ticks_done) % txs.size()]});
    ++ticks_done;
  }
  if (engine.resync() != Status::kOk) {
    run.violations.push_back("final resync() failed");
  }
  run.outcomes = engine.drain();
  run.metrics = engine.snapshot();
  run.reorgs = node.reorgs();
  run.head_number = node.head_number();
  run.store_epoch = engine.epoch_registry().store_epoch();
  run.max_page_epoch = engine.epoch_registry().max_page_epoch();

  // I1: one outcome per bundle id.
  if (run.outcomes.size() != opts.bundles) {
    run.violations.push_back("I1: " + std::to_string(run.outcomes.size()) +
                             " outcomes for " + std::to_string(opts.bundles) +
                             " bundles");
  }
  std::set<uint64_t> ids;
  for (const auto& o : run.outcomes) {
    if (!ids.insert(o.bundle_id).second) {
      run.violations.push_back("I1: duplicate outcome for bundle " +
                               std::to_string(o.bundle_id));
    }
  }
  // I2: no outcome against an orphaned root.
  for (const auto& o : run.outcomes) {
    if (o.state_root == H256{}) {
      if (o.status != Status::kUnavailable && o.status != Status::kStale) {
        run.violations.push_back("I2: bundle " + std::to_string(o.bundle_id) +
                                 " executed against no root (status " +
                                 std::string(to_string(o.status)) + ")");
      }
    } else if (!node.is_canonical_root(o.state_root)) {
      run.violations.push_back("I2: bundle " + std::to_string(o.bundle_id) +
                               " outcome stands against orphaned root " +
                               o.state_root.hex());
    }
  }
  // I3: store never ahead of its commit.
  if (run.max_page_epoch > run.store_epoch) {
    run.violations.push_back("I3: page epoch " + std::to_string(run.max_page_epoch) +
                             " > store epoch " + std::to_string(run.store_epoch));
  }
  // I5: the chaos actually happened.
  if (opts.reorg_rate > 0 && opts.blocks >= 10 && run.reorgs == 0) {
    run.violations.push_back("I5: schedule produced no reorgs");
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions opts;
  for (int i = 1; i < argc - 1; ++i) {
    if (!std::strcmp(argv[i], "--bundles")) opts.bundles = std::strtoull(argv[i + 1], nullptr, 10);
    if (!std::strcmp(argv[i], "--blocks")) opts.blocks = std::strtoull(argv[i + 1], nullptr, 10);
    if (!std::strcmp(argv[i], "--reorg-rate")) opts.reorg_rate = std::strtod(argv[i + 1], nullptr);
    if (!std::strcmp(argv[i], "--reorg-depth")) opts.reorg_depth = int(std::strtol(argv[i + 1], nullptr, 10));
    if (!std::strcmp(argv[i], "--fault-rate")) opts.fault_rate = std::strtod(argv[i + 1], nullptr);
    if (!std::strcmp(argv[i], "--seed")) opts.seed = std::strtoull(argv[i + 1], nullptr, 0);
    if (!std::strcmp(argv[i], "--out")) opts.out_path = argv[i + 1];
  }

  // --- baseline: static chain, no faults — engine == execute_serial ---
  bool baseline_ok = true;
  {
    SoakOptions quiet = opts;
    quiet.reorg_rate = 0;
    quiet.fault_rate = 0;
    node::NodeSimulator node;
    workload::WorkloadGenerator gen(workload::GeneratorConfig{
        .seed = quiet.seed, .user_accounts = 16, .erc20_contracts = 8,
        .dex_pairs = 4, .routers = 4, .txs_per_block = 8});
    gen.deploy(node.world());
    node.produce_block({});
    const auto blocks = gen.generate_evaluation_set(quiet.bundles / 8 + 2);
    std::vector<evm::Transaction> txs;
    for (const auto& block : blocks) txs.insert(txs.end(), block.begin(), block.end());
    std::vector<std::vector<evm::Transaction>> bundles;
    for (size_t i = 0; i < quiet.bundles; ++i) bundles.push_back({txs[i % txs.size()]});

    service::PreExecutionEngine serial(node, soak_config(1, nullptr));
    if (serial.synchronize() != Status::kOk) return 1;
    const auto reference = serial.execute_serial(bundles);

    service::PreExecutionEngine engine(node, soak_config(4, nullptr));
    if (engine.synchronize() != Status::kOk) return 1;
    engine.start();
    for (const auto& bundle : bundles) engine.submit(bundle);
    const auto outcomes = engine.drain();
    baseline_ok = outcomes.size() == reference.size();
    for (size_t i = 0; baseline_ok && i < outcomes.size(); ++i) {
      baseline_ok = service::outcomes_bit_identical(outcomes[i], reference[i]);
    }
  }

  // --- soak: same seeded chaos at 1 and 8 workers ---
  const auto one = run_soak(opts, 1);
  const auto eight = run_soak(opts, 8);

  bool identical = one.outcomes.size() == eight.outcomes.size();
  size_t first_divergence = SIZE_MAX;
  for (size_t i = 0; identical && i < one.outcomes.size(); ++i) {
    if (!service::outcomes_bit_identical(one.outcomes[i], eight.outcomes[i])) {
      identical = false;
      first_divergence = i;
    }
  }

  auto count_status = [](const SoakRun& run, Status s) {
    size_t n = 0;
    for (const auto& o : run.outcomes) n += o.status == s;
    return n;
  };

  bench::Table table({"workers", "outcomes", "ok", "stale", "reorgs", "resyncs",
                      "resims", "store epoch", "faults", "violations"});
  for (const auto* run : {&one, &eight}) {
    table.add_row({run == &one ? "1" : "8", std::to_string(run->outcomes.size()),
                   std::to_string(count_status(*run, Status::kOk)),
                   std::to_string(run->metrics.bundles_stale),
                   std::to_string(run->reorgs), std::to_string(run->metrics.resyncs),
                   std::to_string(run->metrics.bundle_resims),
                   std::to_string(run->store_epoch),
                   std::to_string(run->metrics.faults_injected),
                   std::to_string(run->violations.size())});
  }
  table.print("Chaos soak (blocks + reorgs + faults + bundle traffic)");

  for (const auto* run : {&one, &eight}) {
    for (const auto& v : run->violations) {
      std::fprintf(stderr, "violation (%s workers): %s\n",
                   run == &one ? "1" : "8", v.c_str());
    }
  }
  if (!identical) {
    std::fprintf(stderr, "violation (I4): 1-worker and 8-worker outcomes diverge%s\n",
                 first_divergence == SIZE_MAX
                     ? " in count"
                     : (" at bundle index " + std::to_string(first_divergence)).c_str());
  }
  if (!baseline_ok) {
    std::fprintf(stderr, "violation (baseline): static-chain engine diverged "
                         "from execute_serial\n");
  }

  const bool ok = baseline_ok && identical && one.violations.empty() &&
                  eight.violations.empty();

  std::ofstream json(opts.out_path);
  json << "{\n  \"bench\": \"soak\",\n  \"bundles\": " << opts.bundles
       << ",\n  \"blocks\": " << opts.blocks
       << ",\n  \"reorg_rate\": " << opts.reorg_rate
       << ",\n  \"reorg_depth\": " << opts.reorg_depth
       << ",\n  \"fault_rate\": " << opts.fault_rate
       << ",\n  \"seed\": " << opts.seed
       << ",\n  \"baseline_bit_identical_to_serial\": " << (baseline_ok ? "true" : "false")
       << ",\n  \"identical_1v8\": " << (identical ? "true" : "false")
       << ",\n  \"runs\": [\n";
  bool first = true;
  for (const auto* run : {&one, &eight}) {
    const auto& m = run->metrics;
    json << (first ? "" : ",\n") << "    {\"workers\": " << (run == &one ? 1 : 8)
         << ", \"outcomes\": " << run->outcomes.size()
         << ", \"ok\": " << count_status(*run, Status::kOk)
         << ", \"stale\": " << m.bundles_stale
         << ", \"recovered\": " << m.bundles_recovered
         << ", \"aborted\": " << m.bundles_aborted
         << ", \"reorgs\": " << run->reorgs
         << ", \"head_number\": " << run->head_number
         << ", \"resyncs\": " << m.resyncs
         << ", \"bundle_resims\": " << m.bundle_resims
         << ", \"store_epoch\": " << run->store_epoch
         << ", \"max_page_epoch\": " << run->max_page_epoch
         << ", \"faults_injected\": " << m.faults_injected
         << ", \"violations\": " << run->violations.size() << "}";
    first = false;
  }
  json << "\n  ],\n  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", opts.out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", opts.out_path.c_str());
  std::printf("soak verdict: %s\n", ok ? "all invariants hold" : "VIOLATIONS");
  return ok ? 0 : 1;
}
