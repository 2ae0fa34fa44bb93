// The end-to-end pre-execution service — the 11-step lifecycle of the
// paper's Figure 3, assembled from every substrate in this repository.
//
//  (1)  boot: CSU verifies the SBL, the Hypervisor comes up        [hypervisor]
//  (2)  user attestation + secure channel                          [hypervisor]
//  (3)  bundle queued until an HEVM is idle, then assigned          [this file]
//  (4)  HEVM executes the bundle                                    [hevm, evm]
//  (5-6) exceptions to the Hypervisor, protected messages           [hypervisor]
//  (7)  call-stack page dumps to untrusted memory                   [memlayer]
//  (8)  on-chain data queried from the ORAM server                  [oram]
//  (9)  traces accumulated and returned over the secure channel     [hevm]
//  (10) HEVM reset, on-chip memories cleared                        [hevm]
//  (11) new blocks synchronized into the ORAM                       [node]
//
// All timing flows through sim::SimClock via the cost models of sim/costs.hpp
// (see DESIGN.md §1); all cryptography and the ORAM itself are real.
#pragma once

#include "hevm/hevm_core.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/prefetch.hpp"
#include "node/node.hpp"
#include "node/sync.hpp"
#include "oram/paged_state.hpp"
#include "service/security_config.hpp"
#include "sim/costs.hpp"

namespace hardtape::service {

/// Wire-size models of the user channel, shared by the serial service and
/// the concurrent engine so both charge identical channel-crypto time.
namespace wire {
/// Serialized size of a bundle-submit message body.
uint64_t bundle_bytes(const std::vector<evm::Transaction>& bundle);
/// Serialized size of the returned trace report (step-level trace dominates).
uint64_t trace_bytes(const hevm::BundleReport& report);
}  // namespace wire

/// state::StateReader routing each query to the ORAM or to locally
/// prefetched (untrusted) memory according to the security configuration,
/// charging simulated time either way.
class RoutedStateReader : public state::StateReader {
 public:
  struct Timing {
    sim::SimClock* clock = nullptr;
    /// chip <-> ORAM server: the paper's "Ethernet with a 2 ms latency",
    /// which we apportion as ~1 ms per direction on a 10 GbE link.
    sim::LinkModel oram_link{.latency_ns = 1'250'000, .bytes_per_ns = 1.25};
    sim::OramServerModel server{};
    sim::CryptoCostModel crypto{};
    /// The ORAM path is re-encrypted by the dedicated A.E.DMA engines at
    /// near line rate, unlike the modest user-channel stream.
    double oram_reencrypt_bytes_per_ns = 1.6;
    uint64_t local_read_ns = 2'000;         ///< prefetched untrusted memory, per page
    uint32_t modeled_tree_depth = 30;       ///< 1.1 TB / 1 KB blocks => ~2^30 leaves
    uint64_t page_bytes = oram::kPageSize + 60;  ///< sealed slot size on the wire
  };

  RoutedStateReader(const state::WorldState& local, oram::OramWorldState* oram_state,
                    const SecurityConfig& security, Timing timing);

  std::optional<state::Account> account(const Address& addr) const override;
  u256 storage(const Address& addr, const u256& key) const override;
  Bytes code(const Address& addr) const override;

  /// Simulated cost of one full Path ORAM access over the modeled 2^30-leaf
  /// production tree (download + upload of a (depth+1)*Z-slot path, server
  /// service time, on-chip re-encryption through the A.E.DMA).
  uint64_t oram_access_ns() const;

  // Per-bundle statistics.
  struct Stats {
    uint64_t oram_queries = 0;
    uint64_t kv_queries = 0;
    uint64_t code_queries = 0;
    uint64_t local_reads = 0;
    uint64_t oram_time_ns = 0;
    std::vector<hypervisor::QueryEvent> demand_timeline;
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  void charge_oram(oram::PageType type) const;
  void charge_local() const;

  struct PageKey {
    Address addr;
    u256 index;
    friend bool operator==(const PageKey&, const PageKey&) = default;
  };
  struct PageKeyHasher {
    size_t operator()(const PageKey& k) const {
      return AddressHasher{}(k.addr) ^ (U256Hasher{}(k.index) * 0x9e3779b97f4a7c15ull);
    }
  };

  const state::WorldState& local_;
  oram::OramWorldState* oram_;
  SecurityConfig security_;
  Timing timing_;
  mutable Stats stats_;
  // Per-bundle page caches, modeling the HEVM's layer-1 world-state cache:
  // one ORAM fetch serves all records of a page for the rest of the bundle.
  mutable std::unordered_map<Address, std::optional<Bytes>, AddressHasher> meta_cache_;
  mutable std::unordered_map<PageKey, std::optional<Bytes>, PageKeyHasher> group_cache_;
};

/// The service provider's deployment: one chip (N dedicated HEVM cores), a
/// Hypervisor, the ORAM server, and the Node — everything the SP runs.
class PreExecutionService {
 public:
  struct Config {
    SecurityConfig security = SecurityConfig::full();
    int hevm_cores = 3;  ///< paper §VI-A: LUT-limited to 3 per XCZU15EV
    hevm::HevmCore::Config core{};
    oram::OramConfig oram{};
    RoutedStateReader::Timing timing{};
    sim::HypervisorCostModel hypervisor_costs{};
    sim::CryptoCostModel crypto_costs{};
    uint64_t seed = 1;
    /// When false, ECDSA/AES operations on the user channel are modeled in
    /// time only (large benches); the ORAM's crypto is always real.
    bool perform_channel_crypto = true;
  };

  PreExecutionService(node::NodeSimulator& node, Config config);

  /// Step 11: verify the node's world state against the trusted root and
  /// install it into the ORAM. Returns kBadProof if the node lies.
  Status synchronize();

  /// Steps 2-10 for one bundle on one dedicated core. Each call models an
  /// independent user session (fresh session keys).
  struct BundleOutcome {
    Status status = Status::kOk;
    hevm::BundleReport report;
    uint64_t end_to_end_ns = 0;   ///< SP receives request -> sends traces
    uint64_t hevm_time_ns = 0;    ///< execution incl. ORAM stalls
    uint64_t crypto_time_ns = 0;  ///< channel AES + ECDSA
    uint64_t message_time_ns = 0; ///< hypervisor handling + DMA
    RoutedStateReader::Stats query_stats;
    /// The adversary-visible query timeline after pagewise code prefetching.
    std::vector<hypervisor::QueryEvent> observed_timeline;
  };
  BundleOutcome pre_execute(const std::vector<evm::Transaction>& bundle);

  sim::SimClock& clock() { return clock_; }
  oram::OramServer& oram_server() { return oram_server_; }
  oram::OramClient& oram_client() { return oram_client_; }
  hypervisor::Hypervisor& hypervisor() { return hypervisor_; }
  const Config& config() const { return config_; }
  const hypervisor::Manufacturer& manufacturer() const { return manufacturer_; }

  /// Models Fig. 3 step 3 queueing: bundles arriving `arrival_gap_ns` apart
  /// are dispatched to the earliest-free of `cores` dedicated HEVMs (no
  /// context switches — a busy core finishes its bundle first).
  struct ScheduleResult {
    uint64_t makespan_ns = 0;        ///< first arrival -> last completion
    uint64_t mean_wait_ns = 0;       ///< time spent queued, per bundle
    uint64_t max_queue_depth = 0;
    std::vector<uint64_t> completion_ns;
  };
  static ScheduleResult schedule_bundles(const std::vector<uint64_t>& durations_ns,
                                         int cores, uint64_t arrival_gap_ns);

  /// §VI-D chip throughput: cores / mean bundle time.
  double throughput_tx_per_s(uint64_t mean_bundle_ns) const {
    return static_cast<double>(config_.hevm_cores) * 1e9 /
           static_cast<double>(mean_bundle_ns);
  }

 private:
  node::NodeSimulator& node_;
  Config config_;
  sim::SimClock clock_;
  Random rng_;
  hypervisor::Manufacturer manufacturer_;
  hypervisor::Hypervisor hypervisor_;
  oram::OramServer oram_server_;
  oram::OramClient oram_client_;
  oram::OramWorldState oram_state_;
  std::vector<std::unique_ptr<hevm::HevmCore>> cores_;
  uint64_t bundles_served_ = 0;
};

}  // namespace hardtape::service
