// perfbench: the pre-executor's benchmark (see README.md for the workloads,
// the metrics and how each layer metric should move an end-to-end one).
//
//   perfbench --workload <steady-full|local-state|live-durable>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 drives service::PreExecutionEngine with closed-loop clients and
// reports the end-to-end metrics. --trace 1 reports per-layer metrics: the
// same engine run for the queueing and lock counts, then a one-thread run
// that composes the engine's public layers (node sync, ORAM store, routed
// state reader, HEVM core, durability) and times each call from here.
// Either way every bundle's result is checked against hevm::GethRole on the
// plain pinned world, and the run's property checks must hold. The last line
// of stdout is one JSON object; everything else goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "checks.hpp"
#include "durability/durable_store.hpp"
#include "durability/recovery.hpp"
#include "durability/vfs.hpp"
#include "hevm/hevm_core.hpp"
#include "memlayer/pager.hpp"
#include "node/node.hpp"
#include "node/sync.hpp"
#include "obs/percentile.hpp"
#include "oram/paged_state.hpp"
#include "service/engine.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Bundle = std::vector<evm::Transaction>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  service::SecurityConfig security;
  size_t state_scale;        ///< multiplies accounts, tokens and DEX pairs
  size_t txs_per_bundle;
  size_t clients;            ///< closed-loop users, one bundle in flight each
  int workers;               ///< engine HEVMs
  bool durable;              ///< paged ORAM over SimFs + DurableStore + crash
  size_t bundles_per_block;  ///< live chain cadence; 0 = static chain
  size_t txs_per_block;
  /// peak_rss_mb is read when this many bundles have completed: a fixed
  /// amount of work, since the engine and SimFs grow with every bundle.
  uint64_t rss_at_bundles;
};

// Two workers, the engine's watchdog and the submitting thread stay within
// four cores. Four clients keep about one bundle queued per worker.
const Workload kWorkloads[] = {
    {"steady-full", service::SecurityConfig::full(), 1, 1, 4, 2, false, 0, 0, 640},
    {"local-state", service::SecurityConfig::ES(), 1, 8, 4, 2, false, 0, 0, 16384},
    {"live-durable", service::SecurityConfig::full(), 2, 1, 4, 2, true, 48, 8, 512},
};

/// The deployed state and the bundle pool are fixed, like the paper's fixed
/// evaluation blocks; `--seed` draws the run's bundle sequence from the pool
/// and seeds the engine. A seeded deployment moved the cost per bundle by
/// ~10% from seed to seed, more than the machine's own noise.
constexpr uint64_t kDeploySeed = 19145194;
constexpr size_t kBundlePool = 1024;      ///< distinct bundles a run draws from
constexpr size_t kTxsPerGeneratedBlock = 64;
constexpr double kWarmupS = 1.0;          ///< excluded from every timed metric
constexpr size_t kMinLatencySamples = 100;  ///< >= 10 samples beyond p90
constexpr size_t kPoolPages = 256;        ///< per paged store, far below the tree
constexpr uint64_t kCheckpointEveryRecords = 256;

// The node, the deployed state, the bundle pool and the run's draws from it.
struct Chain {
  Chain(const Workload& w, uint64_t seed)
      : gen(workload::GeneratorConfig{.seed = kDeploySeed,
                                      .user_accounts = 32 * w.state_scale,
                                      .erc20_contracts = 24 * w.state_scale,
                                      .dex_pairs = 12 * w.state_scale,
                                      .routers = 6,
                                      .txs_per_block = kTxsPerGeneratedBlock}),
        txs_per_block(w.txs_per_block),
        draw_rng(seed) {
    gen.deploy(node.world());
    node.produce_block({});
    while (bundles.size() < kBundlePool) {
      const Bundle txs = gen.generate_block();
      for (size_t i = 0; i + w.txs_per_bundle <= txs.size() && bundles.size() < kBundlePool;
           i += w.txs_per_bundle) {
        bundles.emplace_back(txs.begin() + static_cast<long>(i),
                             txs.begin() + static_cast<long>(i + w.txs_per_bundle));
      }
    }
  }

  /// Pool index of bundle `id` of this run: uniform draws from the seed.
  size_t pool_index(uint64_t id) {
    while (draws.size() <= id) draws.push_back(draw_rng.uniform(bundles.size()));
    return draws[id];
  }
  const Bundle& bundle(uint64_t id) { return bundles[pool_index(id)]; }

  /// Mines the next block of the live chain (transactions generated after
  /// the bundle pool).
  void produce_block() {
    Bundle txs = gen.generate_block();
    txs.resize(txs_per_block);
    node.produce_block(txs);
  }

  node::NodeSimulator node;
  workload::WorkloadGenerator gen;
  size_t txs_per_block;
  std::vector<Bundle> bundles;
  Random draw_rng;
  std::vector<size_t> draws;
};

durability::DurableConfig durable_config() {
  return {.checkpoint_every_records = kCheckpointEveryRecords,
          .incremental_checkpoints = true,
          .buffer_pool_pages = kPoolPages};
}

service::EngineConfig engine_config(const Workload& w, uint64_t seed, durability::SimFs* fs,
                                    durability::DurableStore* durable) {
  service::EngineConfig config;
  config.security = w.security;
  config.num_hevms = w.workers;
  config.seed = seed;
  config.oram = oram::OramConfig{.block_size = oram::kPageSize,
                                 .capacity = 8192 * w.state_scale,
                                 .max_stash_blocks = 512};
  if (fs != nullptr) {
    config.oram.backend = oram::SlotBackend::kPaged;
    config.oram.backing_fs = fs;
    config.oram.buffer_pool_pages = kPoolPages;
  }
  config.durable = durable;
  return config;
}

bool uses_oram(const Workload& w) { return w.security.oram_storage || w.security.oram_code; }

// ---------------------------------------------------------------------------
// Outcomes and their checks

/// GethRole results per (pinned root, pool bundle): the same bundle on the
/// same snapshot has one reference answer.
class Oracle {
 public:
  explicit Oracle(Chain& chain) : chain_(chain) {}

  /// Empty when the HEVM's results agree with GethRole on the snapshot.
  std::string check(const H256& root, uint64_t bundle_id, const std::vector<TxResultView>& txs) {
    const size_t pool_index = chain_.pool_index(bundle_id);
    const auto key = std::make_pair(root, pool_index);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      const auto world = chain_.node.world_at(root);
      const std::optional<node::BlockHeader> header = header_for(root);
      if (world == nullptr || !header) return "outcome pinned to a root the node never produced";
      it = memo_.emplace(key, geth_reference(*world, chain_.node.block_context_at(*header),
                                             chain_.bundles[pool_index]))
               .first;
    }
    return check_against_reference(txs, it->second);
  }

 private:
  std::optional<node::BlockHeader> header_for(const H256& root) const {
    const std::vector<node::BlockHeader> headers = chain_.node.chain();
    for (auto it = headers.rbegin(); it != headers.rend(); ++it) {
      if (it->state_root == root) return *it;
    }
    return std::nullopt;
  }

  Chain& chain_;
  std::map<std::pair<H256, size_t>, std::vector<TxResultView>> memo_;
};

/// Collects violations; the run is correct when none were added.
struct Verdict {
  std::vector<std::string> violations;
  uint64_t memory_overflows = 0;
  void require(const std::string& violation) {
    if (!violation.empty()) violations.push_back(violation);
  }
};

struct RunTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Checks the outcomes users received: kOk (a kMemoryOverflow abort is
/// counted, any other failure is a violation), and GethRole agrees.
void check_outcomes(const std::vector<service::SessionOutcome>& outcomes, Oracle& oracle,
                    Verdict& verdict, RunTally& tally) {
  for (const service::SessionOutcome& o : outcomes) {
    if (o.status == Status::kMemoryOverflow) ++verdict.memory_overflows;
    if (o.status != Status::kOk) {
      ++tally.failed;
      verdict.require(check_status(o.bundle_id, o.status));
      continue;
    }
    const std::string mismatch = oracle.check(o.state_root, o.bundle_id, results_of(o.report));
    if (!mismatch.empty()) {
      verdict.require("bundle " + std::to_string(o.bundle_id) + ": " + mismatch);
    }
  }
}

// ---------------------------------------------------------------------------
// Closed-loop clients

/// Completions from the engine's workers to the submitting thread: the
/// bundle id and the time its outcome arrived. The outcomes themselves are
/// checked from engine.drain() once the run is over.
class Mailbox {
 public:
  std::function<void(const service::SessionOutcome&)> hook() {
    return [this](const service::SessionOutcome& outcome) {
      const Clock::time_point at = Clock::now();
      {
        std::lock_guard lock(mu_);
        fresh_.push_back({outcome.bundle_id, at});
      }
      cv_.notify_one();
    };
  }
  /// Blocks until at least one new outcome arrived; returns (id, time) pairs.
  std::vector<std::pair<uint64_t, Clock::time_point>> wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return !fresh_.empty(); });
    std::vector<std::pair<uint64_t, Clock::time_point>> out;
    out.swap(fresh_);
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<uint64_t, Clock::time_point>> fresh_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct LoopResult {
  std::vector<double> latency_ms;  ///< bundles submitted inside the window
  std::vector<uint64_t> sampled_ids;
  std::vector<double> completed_at_s;  ///< completions, seconds into the window
  double window_s = 0;
  uint64_t submitted = 0;
  uint64_t blocks = 0;
  uint64_t failed_resyncs = 0;  ///< delta syncs that failed on a live disk
  double peak_rss_mb = 0;       ///< high-water RSS after w.rss_at_bundles completions
  service::EngineMetrics at_window_start;  ///< taken only with `snapshots`
  service::EngineMetrics at_window_end;
};

/// Each client submits its next bundle when its previous outcome arrives.
/// After a warm-up the window runs `window_s` seconds, longer if fewer than
/// `min_samples` latencies were taken or fewer than w.rss_at_bundles bundles
/// completed. With `crash_fs` set, the run then arms a seeded power loss and
/// keeps going until it lands. With `snapshots` the engine's metrics are
/// taken as the window opens and closes.
LoopResult run_closed_loop(service::PreExecutionEngine& engine, Chain& chain,
                           const Workload& w, Mailbox& mailbox, double window_s,
                           size_t min_samples, durability::SimFs* crash_fs,
                           uint64_t seed, bool snapshots) {
  LoopResult r;
  struct InFlight {
    size_t client;
    Clock::time_point sent;
  };
  std::unordered_map<uint64_t, InFlight> inflight;
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const Clock::time_point warm_end = after(Clock::now(), kWarmupS);
  const Clock::time_point window_end = after(warm_end, window_s);
  bool window_started = false;
  bool window_closed = false;
  Clock::time_point closed_at{};
  bool armed = false;
  size_t since_block = 0;
  uint64_t completed = 0;

  auto submit = [&](size_t client) {
    const uint64_t id = r.submitted++;
    inflight[id] = InFlight{client, Clock::now()};
    engine.submit_as(id, chain.bundle(id));
  };

  engine.start();
  for (size_t c = 0; c < w.clients; ++c) submit(c);
  while (!inflight.empty()) {
    for (const auto& [id, at] : mailbox.wait()) {
      const auto it = inflight.find(id);
      if (it == inflight.end()) continue;
      const InFlight sent = it->second;
      inflight.erase(it);
      if (++completed == w.rss_at_bundles) r.peak_rss_mb = peak_rss_mb();
      const Clock::time_point now = Clock::now();
      if (!window_started && now >= warm_end) {
        window_started = true;
        if (snapshots) r.at_window_start = engine.snapshot();
      }
      if (!window_closed) {
        if (at >= warm_end) r.completed_at_s.push_back(seconds_between(warm_end, at));
        if (sent.sent >= warm_end) {
          r.latency_ms.push_back(std::chrono::duration<double, std::milli>(at - sent.sent).count());
          r.sampled_ids.push_back(id);
        }
        if (now >= window_end && r.latency_ms.size() >= min_samples &&
            completed >= w.rss_at_bundles) {
          window_closed = true;
          closed_at = now;
          if (snapshots) r.at_window_end = engine.snapshot();
        }
      }
      if (window_closed && crash_fs != nullptr && !armed) {
        // Land the power loss within the next couple of bundles' fs ops.
        const uint64_t ops = crash_fs->op_count();
        const uint64_t span = std::max<uint64_t>(1, 2 * ops / std::max<uint64_t>(1, r.submitted));
        Random rng(seed ^ 0xc4a5);
        crash_fs->arm({.crash_at_op = ops + 1 + rng.uniform(span), .resolve_seed = seed});
        armed = true;
      }
      const bool crashed = crash_fs != nullptr && crash_fs->crashed();
      if (window_closed && (crash_fs == nullptr || crashed)) continue;
      if (w.bundles_per_block > 0 && ++since_block >= w.bundles_per_block) {
        since_block = 0;
        chain.produce_block();
        ++r.blocks;
        // Delta sync; quiesces the pool meanwhile. Once the power is out
        // the paged store's spill is gone and a failed sync is expected.
        if (engine.resync() != Status::kOk && !(crash_fs != nullptr && crash_fs->crashed())) {
          ++r.failed_resyncs;
        }
      }
      submit(sent.client);
    }
  }
  r.window_s = seconds_between(warm_end, closed_at);
  return r;
}


// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Prints the violations and the result line; the exit code of the run.
int finish(const Verdict& verdict, const RunTally& tally, const std::vector<Metric>& metrics) {
  for (const auto& v : verdict.violations) std::fprintf(stderr, "violation: %s\n", v.c_str());
  if (verdict.memory_overflows > 0) {
    std::fprintf(stderr, "%llu bundles aborted with kMemoryOverflow\n",
                 static_cast<unsigned long long>(verdict.memory_overflows));
  }
  const bool correct = verdict.violations.empty();
  print_result(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

double median(std::vector<double> v) { return obs::percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double per(double total, double count) { return count > 0 ? total / count : 0.0; }

/// Completions per second, as the median over the window's whole seconds:
/// a burst of host contention slows some seconds, not the median one.
double median_rate(const std::vector<double>& completed_at_s, double window_s) {
  const size_t seconds = static_cast<size_t>(window_s);
  if (seconds == 0) return per(static_cast<double>(completed_at_s.size()), window_s);
  std::vector<double> per_second(seconds, 0.0);
  for (const double t : completed_at_s) {
    if (t < static_cast<double>(seconds)) per_second[static_cast<size_t>(t)] += 1;
  }
  return median(per_second);
}

// ---------------------------------------------------------------------------
// Set-up and recovery

/// The engine of one run, with its chain and (live-durable) its disk.
struct Deployment {
  std::unique_ptr<Chain> chain;
  std::unique_ptr<durability::SimFs> fs;
  std::unique_ptr<durability::DurableStore> store;
  std::unique_ptr<service::PreExecutionEngine> engine;
};

/// The run's inputs: the node with the deployed state, the bundle pool and
/// (live-durable) the disk. No engine yet.
Deployment deploy(const Workload& w, uint64_t seed) {
  Deployment d;
  d.chain = std::make_unique<Chain>(w, seed);
  if (w.durable) {
    d.fs = std::make_unique<durability::SimFs>();
    d.store = std::make_unique<durability::DurableStore>(*d.fs, durable_config());
  }
  return d;
}

/// The pre-executor's cold set-up: engine construction, then a cold
/// synchronize() that pins the head. Returns its seconds; the census check
/// of the pages it installed runs after the clock stops.
double cold_setup(const Workload& w, uint64_t seed, Deployment& d, Mailbox& mailbox,
                  Verdict& verdict) {
  const Clock::time_point start = Clock::now();
  service::EngineConfig config = engine_config(w, seed, d.fs.get(), d.store.get());
  config.on_outcome = mailbox.hook();
  d.engine = std::make_unique<service::PreExecutionEngine>(d.chain->node, config);
  const Status status = d.engine->synchronize();
  const double seconds = seconds_between(start, Clock::now());
  if (status != Status::kOk) {
    verdict.require(std::string("cold synchronize() failed: ") + to_string(status));
  } else if (uses_oram(w)) {
    verdict.require(check_census(d.engine->snapshot().sync_pages_installed,
                                 expected_sync_pages(d.chain->node.world())));
  }
  return seconds;
}

/// The live-durable ending: replay the crashed disk, adopt it in a fresh
/// store, warm-restart a fresh engine at the head and check what the
/// restart must establish; then re-admit every bundle whose outcome the
/// crash lost. Returns the outcomes users hold after the restart.
std::vector<service::SessionOutcome> recover_and_readmit(
    const Workload& w, uint64_t seed, Deployment& run,
    std::vector<service::SessionOutcome> crashed_run, uint64_t submitted, Verdict& verdict) {
  std::vector<service::SessionOutcome> delivered;
  if (!run.fs->crashed()) verdict.require("the armed power loss never happened");
  run.fs->restart();
  const durability::RecoveredState recovered = durability::Recovery::replay(*run.fs);
  durability::SimFs fs;
  durability::DurableStore store(fs, durable_config());
  store.adopt(recovered);
  service::PreExecutionEngine engine(run.chain->node, engine_config(w, seed, &fs, &store));
  const Status status = engine.warm_restart(recovered);
  if (status != Status::kOk) {
    verdict.require(std::string("warm_restart() failed: ") + to_string(status));
    return delivered;
  }
  verdict.require(check_restart(recovered.image, engine.pinned_header().state_root,
                                run.chain->node.head().state_root,
                                engine.epoch_registry().max_page_epoch(),
                                engine.epoch_registry().store_epoch()));

  // A bundle is settled when its admission and its resolve mark both
  // survived: its outcome reached the user before the crash. Every other
  // submitted bundle is re-admitted under its id at attempt 1.
  std::map<uint64_t, service::SessionOutcome> before_crash;
  for (service::SessionOutcome& o : crashed_run) before_crash[o.bundle_id] = std::move(o);
  std::vector<uint64_t> readmit;
  for (uint64_t id = 0; id < submitted; ++id) {
    const bool settled =
        id < recovered.image.next_bundle_id && recovered.image.pending_bundles.count(id) == 0;
    if (!settled) {
      readmit.push_back(id);
    } else if (const auto it = before_crash.find(id); it != before_crash.end()) {
      delivered.push_back(std::move(it->second));
    } else {
      verdict.require("settled bundle " + std::to_string(id) + " has no outcome");
    }
  }
  engine.start();
  for (const uint64_t id : readmit) engine.resubmit(id, run.chain->bundle(id), 1);
  for (service::SessionOutcome& o : engine.drain()) {
    if (o.state_root != run.chain->node.head().state_root) {
      verdict.require("re-admitted bundle " + std::to_string(o.bundle_id) +
                      " did not run at the head");
    }
    delivered.push_back(std::move(o));
  }
  std::fprintf(stderr, "crash: %zu settled, %zu re-admitted, %llu journal records replayed\n",
               delivered.size() - readmit.size(), readmit.size(),
               static_cast<unsigned long long>(recovered.stats.records_replayed));
  return delivered;
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics

int run_untraced(const Workload& w, uint64_t seed, double seconds) {
  Verdict verdict;
  RunTally tally;
  Mailbox mailbox;
  Deployment run = deploy(w, seed);
  const double setup_s = cold_setup(w, seed, run, mailbox, verdict);
  if (!verdict.violations.empty()) return finish(verdict, tally, {});

  LoopResult loop = run_closed_loop(*run.engine, *run.chain, w, mailbox, seconds,
                                    kMinLatencySamples, run.fs.get(), seed, false);
  tally.attempted = loop.submitted;
  if (loop.failed_resyncs > 0) {
    verdict.require(std::to_string(loop.failed_resyncs) + " delta syncs failed before the crash");
  }
  if (uses_oram(w)) {
    const oram::ShardedOramStore& store = run.engine->oram_store();
    verdict.require(check_uniformity(
        walk_uniformity(store.observed_walks(), store.shard_count(), store.leaf_count())));
  }
  std::vector<service::SessionOutcome> outcomes = run.engine->drain();
  std::map<uint64_t, uint64_t> sim_ns;
  for (const service::SessionOutcome& o : outcomes) sim_ns.emplace(o.bundle_id, o.end_to_end_ns);
  std::vector<double> sim_ms;
  for (const uint64_t id : loop.sampled_ids) sim_ms.push_back(static_cast<double>(sim_ns[id]) / 1e6);

  run.engine.reset();  // on live-durable: the crashed process is gone
  if (w.durable) {
    outcomes = recover_and_readmit(w, seed, run, std::move(outcomes), loop.submitted, verdict);
  }
  std::vector<uint64_t> ids;
  for (const service::SessionOutcome& o : outcomes) ids.push_back(o.bundle_id);
  verdict.require(check_one_outcome_each(loop.submitted, ids));
  Oracle oracle(*run.chain);
  check_outcomes(outcomes, oracle, verdict, tally);

  std::fprintf(stderr,
               "%s: %llu bundles, %llu failed, %zu latency samples in %.2f s, %llu blocks, "
               "p99 %.3f ms (not reported: a few host stalls set it)\n",
               w.name, static_cast<unsigned long long>(tally.attempted),
               static_cast<unsigned long long>(tally.failed), loop.latency_ms.size(),
               loop.window_s, static_cast<unsigned long long>(loop.blocks),
               obs::percentile(loop.latency_ms, 99.0));
  return finish(verdict, tally,
                {{"setup_s", setup_s, "s"},
                 {"bundles_per_s", median_rate(loop.completed_at_s, loop.window_s), "bundles/s"},
                 {"bundle_p50_ms", obs::percentile(loop.latency_ms, 50.0), "ms"},
                 {"bundle_p90_ms", obs::percentile(loop.latency_ms, 90.0), "ms"},
                 {"sim_bundle_mean_ms", mean(sim_ms), "ms"},
                 {"peak_rss_mb", loop.peak_rss_mb, "MB"}});
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

/// Wall time and calls spent inside one layer, timed around its public calls.
struct Span {
  uint64_t ns = 0;
  uint64_t calls = 0;
};

class Timed {
 public:
  explicit Timed(Span& span) : span_(span), start_(Clock::now()) {}
  ~Timed() {
    span_.ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count());
    ++span_.calls;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span& span_;
  Clock::time_point start_;
};

/// Times every access to the ORAM store: one call is one path walk.
class TimedAccessor final : public oram::OramAccessor {
 public:
  explicit TimedAccessor(oram::OramAccessor& inner) : inner_(inner) {}
  std::optional<Bytes> read(const oram::BlockId& id) override {
    const Timed t(span);
    return inner_.read(id);
  }
  void write(const oram::BlockId& id, BytesView data) override {
    const Timed t(span);
    inner_.write(id, data);
  }
  oram::AccessAttempt try_read(const oram::BlockId& id) override {
    const Timed t(span);
    return inner_.try_read(id);
  }
  oram::AccessAttempt try_write(const oram::BlockId& id, BytesView data) override {
    const Timed t(span);
    return inner_.try_write(id, data);
  }
  Span span;

 private:
  oram::OramAccessor& inner_;
};

/// Times the HEVM's world-state reads (the routed reader and all below it).
class TimedReader final : public state::StateReader {
 public:
  explicit TimedReader(const state::StateReader& inner) : inner_(inner) {}
  std::optional<state::Account> account(const Address& addr) const override {
    const Timed t(span);
    return inner_.account(addr);
  }
  u256 storage(const Address& addr, const u256& key) const override {
    const Timed t(span);
    return inner_.storage(addr, key);
  }
  Bytes code(const Address& addr) const override {
    const Timed t(span);
    return inner_.code(addr);
  }
  mutable Span span;

 private:
  const state::StateReader& inner_;
};

/// Self time per layer of the one-thread composition, plus its counts.
struct Layers {
  Span node_verify;      ///< Merkle proof checks of cold and delta syncs
  Span node_produce;     ///< the node mining live-chain blocks
  Span oram_install;     ///< sync writes into the store (incl. its journal hook)
  Span oram_read;        ///< bundle page reads
  Span service_routed;   ///< RoutedStateReader, minus the ORAM below it
  Span hevm_exec;        ///< HevmCore assign/execute/release, minus state reads
  Span durability;       ///< epoch commits, bundle marks, adopt
  Span replay;           ///< Recovery::replay
  Span warm_restart;     ///< engine construction + warm_restart
  uint64_t pages_installed = 0;
  uint64_t blocks = 0;
  uint64_t delta_sync_ns = 0;
  uint64_t bundles = 0;
  uint64_t instructions = 0;
  uint64_t sim_oram_ns = 0;
  uint64_t sim_hevm_ns = 0;
  uint64_t records_replayed = 0;
  uint64_t pages_restored = 0;
  double wall_s = 0;
  double overhead_pct = 0;
  // live-durable bundle phase, from the pools, the fs op log and the store
  pagedstore::BufferPoolStats pool;
  uint64_t spill_bytes = 0;
  uint64_t journal_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoints = 0;

  uint64_t attributed_ns() const {
    uint64_t total = 0;
    for (const Span* s : {&node_verify, &node_produce, &oram_install, &oram_read,
                          &service_routed, &hevm_exec, &durability, &replay, &warm_restart}) {
      total += s->ns;
    }
    return total;
  }
};

pagedstore::BufferPoolStats pool_totals(service::PreExecutionEngine& engine,
                                        const durability::DurableStore* store) {
  pagedstore::BufferPoolStats total;
  auto add = [&total](const pagedstore::BufferPoolStats& s) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.dirty_writebacks += s.dirty_writebacks;
  };
  const oram::ShardedOramStore& shards = engine.oram_store();
  for (size_t i = 0; i < shards.shard_count(); ++i) {
    if (const auto s = shards.server(i).slot_pool_stats()) add(*s);
  }
  if (store != nullptr) {
    if (const auto s = store->pool_stats()) add(*s);
  }
  return total;
}

/// One thread composes the layers the engine's workers compose: the node's
/// synchronizer and OramWorldState over a timing decorator on the engine's
/// own store, a RoutedStateReader and a HevmCore per bundle, and (on
/// live-durable) the DurableStore's journal, a crash and a warm restart.
class Composition {
 public:
  Composition(const Workload& w, uint64_t seed)
      : w_(w),
        seed_(seed),
        chain_(w, seed),
        fs_(w.durable ? std::make_unique<durability::SimFs>() : nullptr),
        store_(w.durable ? std::make_unique<durability::DurableStore>(*fs_, durable_config())
                         : nullptr),
        config_(engine_config(w, seed, fs_.get(), store_.get())),
        engine_(std::make_unique<service::PreExecutionEngine>(chain_.node, config_)),
        oram_(engine_->oram_store()),
        traced_state_(oram_),
        plain_state_(engine_->oram_store()),
        core_(0, clock_, config_.core),
        key_rng_(seed ^ 0x5e55),
        oracle_(chain_) {
    if (store_ != nullptr) registry_.set_listener(store_.get());
  }

  Layers run(double seconds, Verdict& verdict) {
    const Clock::time_point start = Clock::now();
    pin_ = chain_.node.pinned_head();
    if (uses_oram(w_)) {
      const uint64_t verified_before = layers_.node_verify.ns;
      const uint64_t installed_before = layers_.oram_install.ns;
      sync_to_head(nullptr, verdict);
      layers_.pages_installed = pages_installed_;
      cold_verify_ns_ = layers_.node_verify.ns - verified_before;
      cold_install_ns_ = layers_.oram_install.ns - installed_before;
      verdict.require(check_census(pages_installed_, expected_sync_pages(*pin_.world)));
    }

    const pagedstore::BufferPoolStats pool_before = pool_totals(*engine_, store_.get());
    const uint64_t ops_before = fs_ ? fs_->op_count() : 0;
    const uint64_t ckpt_before = store_ ? store_->stats().checkpoints_written : 0;
    const Clock::time_point deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    while (Clock::now() < deadline) {
      const uint64_t id = layers_.bundles++;
      if (store_ != nullptr) {
        const Timed t(layers_.durability);
        store_->log_bundle_admitted(id);
      }
      execute_traced(id, verdict);
      if (store_ != nullptr) {
        const Timed t(layers_.durability);
        store_->log_bundle_resolved(id);
      }
      if (w_.bundles_per_block > 0 && (id + 1) % w_.bundles_per_block == 0) next_block(verdict);
    }
    if (fs_ != nullptr) tally_disk(pool_before, ops_before, ckpt_before);
    // Outside the attributed wall: the pairs run each bundle twice.
    const Clock::time_point pairs_start = Clock::now();
    layers_.overhead_pct = tracing_overhead_pct(seconds / 4);
    const double pairs_s = seconds_between(pairs_start, Clock::now());
    if (fs_ != nullptr) crash_and_recover(verdict);
    layers_.wall_s = seconds_between(start, Clock::now()) - pairs_s;
    for (const auto& [id, check] : executed_) {
      const std::string mismatch = oracle_.check(check.first, id, check.second);
      if (!mismatch.empty()) verdict.require("traced bundle " + std::to_string(id) + ": " + mismatch);
    }
    return layers_;
  }

  uint64_t cold_verify_ns() const { return cold_verify_ns_; }
  uint64_t cold_install_ns() const { return cold_install_ns_; }
  uint64_t bytes_per_walk() const {
    return uses_oram(w_) ? engine_->oram_store().server(0).bytes_per_access() : 0;
  }

 private:
  /// One verified sync pass to the node's head, bracketed by an epoch like
  /// the engine's own; `old_world` selects a delta sync.
  void sync_to_head(const state::WorldState* old_world, Verdict& verdict) {
    const node::PinnedBlock head = chain_.node.pinned_head();
    {
      const Timed t(layers_.durability);
      registry_.begin(head.header.state_root, head.header.number);
    }
    node::BlockSynchronizer sync(chain_.node, head.header.state_root);
    sync.set_epoch_registry(&registry_);
    const Span install_before = oram_.span;
    const Clock::time_point t0 = Clock::now();
    const Status status =
        old_world != nullptr ? sync.sync_delta(*old_world, oram_) : sync.sync_all(oram_);
    const uint64_t total = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    const uint64_t install = oram_.span.ns - install_before.ns;
    layers_.oram_install.ns += install;
    layers_.oram_install.calls += oram_.span.calls - install_before.calls;
    layers_.node_verify.ns += total - install;
    ++layers_.node_verify.calls;
    {
      const Timed t(layers_.durability);
      if (status == Status::kOk) {
        registry_.commit();
      } else {
        registry_.abort();
      }
    }
    if (status != Status::kOk) {
      verdict.require(std::string("sync pass failed: ") + to_string(status));
      return;
    }
    pages_installed_ += sync.installed_pages();
    pin_ = head;
  }

  void next_block(Verdict& verdict) {
    {
      const Timed t(layers_.node_produce);
      chain_.produce_block();
    }
    const std::shared_ptr<const state::WorldState> old_world = pin_.world;
    const uint64_t before = layers_.node_verify.ns + layers_.oram_install.ns + layers_.durability.ns;
    sync_to_head(old_world.get(), verdict);
    layers_.delta_sync_ns +=
        layers_.node_verify.ns + layers_.oram_install.ns + layers_.durability.ns - before;
    ++layers_.blocks;
  }

  /// Runs one bundle on the core; returns its wall ns. With `traced` the
  /// reads go through TimedReader and the ORAM decorator.
  uint64_t execute(uint64_t id, bool traced, hevm::BundleReport& report,
                   service::RoutedStateReader::Stats& stats) {
    const Clock::time_point t0 = Clock::now();
    clock_.reset();
    service::RoutedStateReader::Timing timing = config_.timing;
    timing.clock = &clock_;
    oram::OramWorldState* state = nullptr;
    if (uses_oram(w_)) state = traced ? &traced_state_ : &plain_state_;
    service::RoutedStateReader routed(*pin_.world, state, config_.security, timing);
    TimedReader timed_reader(routed);
    const state::StateReader& reader =
        traced ? static_cast<const state::StateReader&>(timed_reader) : routed;
    crypto::AesKey128 key;
    key_rng_.fill(key.data(), key.size());
    core_.assign(reader, chain_.node.block_context_at(pin_.header), key,
                 memlayer::noise_stream(seed_, id, 0));
    try {
      report = core_.execute_bundle(chain_.bundle(id));
    } catch (...) {
      core_.release();
      throw;
    }
    core_.release();
    stats = routed.stats();
    reader_ns_ = timed_reader.span.ns;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }

  void execute_traced(uint64_t id, Verdict& verdict) {
    hevm::BundleReport report;
    service::RoutedStateReader::Stats stats;
    const Span oram_before = oram_.span;
    uint64_t total = 0;
    try {
      total = execute(id, true, report, stats);
    } catch (const std::exception& e) {
      verdict.require("traced bundle " + std::to_string(id) + " failed: " + e.what());
      return;
    }
    const uint64_t oram_ns = oram_.span.ns - oram_before.ns;
    layers_.oram_read.ns += oram_ns;
    layers_.oram_read.calls += oram_.span.calls - oram_before.calls;
    layers_.service_routed.ns += reader_ns_ - oram_ns;
    layers_.hevm_exec.ns += total - reader_ns_;
    ++layers_.hevm_exec.calls;
    layers_.instructions += report.instructions;
    layers_.sim_oram_ns += stats.oram_time_ns;
    layers_.sim_hevm_ns += report.sim_time_ns - std::min(report.sim_time_ns, stats.oram_time_ns);
    if (report.aborted) ++verdict.memory_overflows;
    executed_.emplace(id, std::make_pair(pin_.header.state_root, results_of(report)));
  }

  void tally_disk(const pagedstore::BufferPoolStats& before, uint64_t ops_before,
                  uint64_t ckpt_before) {
    const pagedstore::BufferPoolStats after = pool_totals(*engine_, store_.get());
    layers_.pool.hits = after.hits - before.hits;
    layers_.pool.misses = after.misses - before.misses;
    layers_.pool.evictions = after.evictions - before.evictions;
    layers_.pool.dirty_writebacks = after.dirty_writebacks - before.dirty_writebacks;
    for (const durability::FsOpRecord& op : fs_->op_log()) {
      if (op.index <= ops_before) continue;
      if (op.op == durability::FsOp::kFsync) ++layers_.fsyncs;
      if (op.op != durability::FsOp::kAppend) continue;
      if (op.path.rfind("wal-", 0) == 0) layers_.journal_bytes += op.bytes;
      if (op.path.find(".seg-") != std::string::npos) layers_.spill_bytes += op.bytes;
    }
    layers_.checkpoints = store_->stats().checkpoints_written - ckpt_before;
  }

  /// A seeded power loss inside the next bundle's journal traffic, then
  /// replay, adoption by a fresh store and a warm restart, each timed.
  void crash_and_recover(Verdict& verdict) {
    Random rng(seed_ ^ 0xc4a5);
    fs_->arm({.crash_at_op = fs_->op_count() + 1 + rng.uniform(4), .resolve_seed = seed_});
    for (uint64_t id = layers_.bundles; !fs_->crashed() && id < layers_.bundles + 100; ++id) {
      store_->log_bundle_admitted(id);
      hevm::BundleReport report;
      service::RoutedStateReader::Stats stats;
      try {
        execute(id, false, report, stats);
      } catch (const std::exception&) {
        break;  // the store's spill died with the disk
      }
      store_->log_bundle_resolved(id);
    }
    if (!fs_->crashed()) verdict.require("the armed power loss never happened");
    fs_->restart();
    durability::RecoveredState recovered;
    {
      const Timed t(layers_.replay);
      recovered = durability::Recovery::replay(*fs_);
    }
    layers_.records_replayed = recovered.stats.records_replayed;
    durability::SimFs fs;
    durability::DurableStore store(fs, durable_config());
    {
      const Timed t(layers_.durability);
      store.adopt(recovered);
    }
    std::unique_ptr<service::PreExecutionEngine> warm;
    Status status = Status::kOk;
    {
      const Timed t(layers_.warm_restart);
      warm = std::make_unique<service::PreExecutionEngine>(
          chain_.node, engine_config(w_, seed_, &fs, &store));
      status = warm->warm_restart(recovered);
    }
    if (status != Status::kOk) {
      verdict.require(std::string("warm_restart() failed: ") + to_string(status));
      return;
    }
    verdict.require(check_restart(recovered.image, warm->pinned_header().state_root,
                                  chain_.node.head().state_root,
                                  warm->epoch_registry().max_page_epoch(),
                                  warm->epoch_registry().store_epoch()));
    layers_.pages_restored = warm->snapshot().pages_restored;
  }

  /// Pairs of the same bundle run through the decorators and straight
  /// through, alternating which goes first, for `budget_s` seconds.
  double tracing_overhead_pct(double budget_s) {
    uint64_t traced_ns = 0;
    uint64_t plain_ns = 0;
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; seconds_between(start, Clock::now()) < budget_s; ++i) {
      hevm::BundleReport report;
      service::RoutedStateReader::Stats stats;
      const bool traced_first = i % 2 == 0;
      const uint64_t a = execute(i, traced_first, report, stats);
      const uint64_t b = execute(i, !traced_first, report, stats);
      traced_ns += traced_first ? a : b;
      plain_ns += traced_first ? b : a;
    }
    return plain_ns > 0 ? 100.0 * (static_cast<double>(traced_ns) / plain_ns - 1.0) : 0.0;
  }

  const Workload& w_;
  uint64_t seed_;
  Chain chain_;
  std::unique_ptr<durability::SimFs> fs_;
  std::unique_ptr<durability::DurableStore> store_;
  service::EngineConfig config_;
  std::unique_ptr<service::PreExecutionEngine> engine_;
  TimedAccessor oram_;
  oram::OramWorldState traced_state_;
  oram::OramWorldState plain_state_;
  oram::EpochRegistry registry_;  ///< the composition's epochs; the engine's stays unused
  sim::SimClock clock_;
  hevm::HevmCore core_;
  Random key_rng_;
  Oracle oracle_;
  node::PinnedBlock pin_;
  Layers layers_;
  uint64_t pages_installed_ = 0;
  uint64_t cold_verify_ns_ = 0;
  uint64_t cold_install_ns_ = 0;
  uint64_t reader_ns_ = 0;
  std::map<uint64_t, std::pair<H256, std::vector<TxResultView>>> executed_;
};

/// Prints where the composition's wall time went, with the cost model's
/// simulated time per bundle beside the measured time where it has one.
void print_layer_table(const Layers& l, double sim_message_ms) {
  const double wall_ms = l.wall_s * 1e3;
  const double n = static_cast<double>(std::max<uint64_t>(1, l.bundles));
  std::fprintf(stderr, "\n%-22s %10s %12s %14s %14s %8s\n", "layer", "calls", "wall ms",
               "wall ms/bundle", "sim ms/bundle", "share");
  auto row = [&](const char* name, const Span& s, double sim_ms_per_bundle) {
    char sim[32] = "-";
    if (sim_ms_per_bundle >= 0) std::snprintf(sim, sizeof sim, "%.3f", sim_ms_per_bundle);
    std::fprintf(stderr, "%-22s %10llu %12.1f %14.3f %14s %7.1f%%\n", name,
                 static_cast<unsigned long long>(s.calls), s.ns / 1e6, s.ns / 1e6 / n, sim,
                 wall_ms > 0 ? 100.0 * s.ns / 1e6 / wall_ms : 0.0);
  };
  row("node.verify", l.node_verify, -1);
  row("node.produce_block", l.node_produce, -1);
  row("oram.install", l.oram_install, -1);
  row("oram.read", l.oram_read, l.sim_oram_ns / 1e6 / n);
  row("service.routed_reader", l.service_routed, -1);
  row("hevm.exec", l.hevm_exec, l.sim_hevm_ns / 1e6 / n);
  row("durability", l.durability, -1);
  row("durability.replay", l.replay, -1);
  row("service.warm_restart", l.warm_restart, -1);
  row("hypervisor.messages", Span{}, sim_message_ms);
  std::fprintf(stderr, "attributed %.1f%% of %.1f ms; tracing overhead %.1f%% per bundle\n",
               wall_ms > 0 ? 100.0 * l.attributed_ns() / 1e6 / wall_ms : 0.0, wall_ms,
               l.overhead_pct);
}

int run_traced(const Workload& w, uint64_t seed, double seconds) {
  Verdict verdict;
  RunTally tally;

  // Part 1: the engine under closed-loop load, for the waits that exist
  // only with concurrency and for the modelled per-bundle breakdown.
  double lock_wait_ms = 0;
  double queue_wait_ms = 0;
  double sim_oram_ms = 0;
  double sim_hevm_ms = 0;
  double sim_message_ms = 0;
  {
    Mailbox mailbox;
    Deployment run = deploy(w, seed);
    cold_setup(w, seed, run, mailbox, verdict);
    if (!verdict.violations.empty()) return finish(verdict, tally, {});
    const LoopResult loop =
        run_closed_loop(*run.engine, *run.chain, w, mailbox, seconds / 2, 0, nullptr, seed, true);
    const std::vector<service::SessionOutcome> outcomes = run.engine->drain();
    run.engine.reset();
    if (loop.failed_resyncs > 0) verdict.require("delta syncs failed in the engine run");
    const service::EngineMetrics& a = loop.at_window_start;
    const service::EngineMetrics& b = loop.at_window_end;
    const double done = static_cast<double>(b.bundles_completed - a.bundles_completed);
    uint64_t stall_ns = b.oram_contention_stall_ns - a.oram_contention_stall_ns;
    for (size_t i = 0; i < b.oram_shards.size() && i < a.oram_shards.size(); ++i) {
      stall_ns += b.oram_shards[i].stall_ns - a.oram_shards[i].stall_ns;
    }
    lock_wait_ms = per(stall_ns / 1e6, done);
    queue_wait_ms = per((b.wall_queue_wait_ns - a.wall_queue_wait_ns) / 1e6, done);
    for (const service::SessionOutcome& o : outcomes) {
      const uint64_t oram_ns = o.query_stats.oram_time_ns;
      sim_oram_ms += oram_ns / 1e6;
      sim_hevm_ms += (o.hevm_time_ns - std::min(o.hevm_time_ns, oram_ns)) / 1e6;
      sim_message_ms += o.message_time_ns / 1e6;
    }
    const double n = static_cast<double>(std::max<size_t>(1, outcomes.size()));
    sim_oram_ms /= n;
    sim_hevm_ms /= n;
    sim_message_ms /= n;
    std::vector<uint64_t> ids;
    for (const service::SessionOutcome& o : outcomes) ids.push_back(o.bundle_id);
    verdict.require(check_one_outcome_each(loop.submitted, ids));
    Oracle oracle(*run.chain);
    tally.attempted += loop.submitted;
    check_outcomes(outcomes, oracle, verdict, tally);
  }

  // Part 2: one thread, every layer call timed from here.
  Composition composition(w, seed);
  const Layers l = composition.run(seconds / 2, verdict);
  tally.attempted += l.bundles;
  print_layer_table(l, sim_message_ms);
  const double n = static_cast<double>(std::max<uint64_t>(1, l.bundles));
  const double walks = static_cast<double>(l.oram_read.calls);
  const double lookups = static_cast<double>(l.pool.hits + l.pool.misses);
  return finish(
      verdict, tally,
      {{"oram.walks_per_bundle", walks / n, "count"},
       {"oram.bytes_per_walk", static_cast<double>(composition.bytes_per_walk()), "B"},
       {"oram.walk_us", per(l.oram_read.ns / 1e3, walks), "us"},
       {"oram.read_ms_per_bundle", l.oram_read.ns / 1e6 / n, "ms"},
       {"oram.lock_wait_ms_per_bundle", lock_wait_ms, "ms"},
       {"service.queue_wait_ms_per_bundle", queue_wait_ms, "ms"},
       {"service.routed_us_per_bundle", l.service_routed.ns / 1e3 / n, "us"},
       {"node.verify_s", composition.cold_verify_ns() / 1e9, "s"},
       {"node.install_s", composition.cold_install_ns() / 1e9, "s"},
       {"node.pages_installed", static_cast<double>(l.pages_installed), "count"},
       {"node.delta_sync_ms_per_block", per(l.delta_sync_ns / 1e6, l.blocks), "ms"},
       {"hevm.exec_us_per_bundle", l.hevm_exec.ns / 1e3 / n, "us"},
       {"evm.instructions_per_bundle", l.instructions / n, "count"},
       {"pagedstore.pool_hit_ratio", per(l.pool.hits, lookups), "ratio"},
       {"pagedstore.evictions_per_bundle", l.pool.evictions / n, "count"},
       {"pagedstore.dirty_writebacks_per_bundle", l.pool.dirty_writebacks / n, "count"},
       {"pagedstore.spill_bytes_per_bundle", l.spill_bytes / n, "B"},
       {"durability.journal_bytes_per_bundle", l.journal_bytes / n, "B"},
       {"durability.fsyncs_per_bundle", l.fsyncs / n, "count"},
       {"durability.checkpoints_per_bundle", l.checkpoints / n, "count"},
       {"durability.replay_ms", l.replay.ns / 1e6, "ms"},
       {"durability.records_replayed", static_cast<double>(l.records_replayed), "count"},
       {"service.warm_restart_ms", l.warm_restart.ns / 1e6, "ms"},
       {"service.pages_restored", static_cast<double>(l.pages_restored), "count"},
       {"sim.oram_ms_per_bundle", sim_oram_ms, "ms"},
       {"sim.hevm_ms_per_bundle", sim_hevm_ms, "ms"},
       {"sim.message_ms_per_bundle", sim_message_ms, "ms"},
       {"trace.coverage", per(l.attributed_ns() / 1e9, l.wall_s), "ratio"},
       {"trace.overhead_pct", l.overhead_pct, "%"}});
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!(seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  for (const auto& w : perfbench::kWorkloads) {
    if (workload != w.name) continue;
    try {
      return trace != 0 ? perfbench::run_traced(w, seed, seconds)
                        : perfbench::run_untraced(w, seed, seconds);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "unknown workload '%s' (steady-full, local-state, live-durable)\n",
               workload.c_str());
  return 2;
}
