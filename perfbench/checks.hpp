// Output and property checks of the benchmark, computed by the benchmark's
// own code from the program's public API. Each returns an empty string when
// the property holds and a one-line description of the first violation
// otherwise; selftest.cpp shows every check failing on a wrong input.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "durability/checkpoint.hpp"
#include "evm/types.hpp"
#include "hevm/hevm_core.hpp"
#include "state/world_state.hpp"

namespace perfbench {

using namespace hardtape;

/// Pages a cold sync must install for `world`, counted from the node's
/// world state alone: one meta page per account, ceil(code / 1 KiB) code
/// pages, and one page per distinct 32-slot storage group.
uint64_t expected_sync_pages(const state::WorldState& world);

/// Cold-sync census check: the installed page count against the census.
std::string check_census(uint64_t installed_pages, uint64_t expected_pages);

/// Loose fixed-threshold uniformity test of the SP-visible walk log, as
/// (shard, shard-local leaf) pairs: Pearson chi-square per degree of freedom
/// over the shards and over 16 equal leaf bins, each at most kMaxChi2PerDf.
/// Uniform draws exceed that bound with probability below 1e-6 per test.
struct Uniformity {
  static constexpr double kMaxChi2PerDf = 6.0;
  uint64_t walks = 0;
  double shard_chi2_per_df = 0;
  double leaf_chi2_per_df = 0;
};
Uniformity walk_uniformity(const std::vector<std::pair<uint32_t, uint64_t>>& walks,
                           size_t shard_count, size_t leaves_per_shard);
std::string check_uniformity(const Uniformity& u);

/// One transaction's user-visible result: status, gas used, return data.
struct TxResultView {
  evm::VmStatus status = evm::VmStatus::kSuccess;
  uint64_t gas_used = 0;
  Bytes output;
};

/// Re-executes `bundle` with hevm::GethRole on the plain pinned world —
/// no ORAM, pager or hypervisor on this path.
std::vector<TxResultView> geth_reference(const state::WorldState& world,
                                         const evm::BlockContext& block,
                                         const std::vector<evm::Transaction>& bundle);

/// The same view of an HEVM bundle report.
std::vector<TxResultView> results_of(const hevm::BundleReport& report);

/// Per-tx status, gas used and return data of the HEVM's results against
/// the reference.
std::string check_against_reference(const std::vector<TxResultView>& hevm,
                                    const std::vector<TxResultView>& reference);

/// What a warm restart must establish: pinned at the node's head, no
/// recovered page tagged past the committed epoch, and the engine's
/// registry never ahead of its own commit.
std::string check_restart(const durability::StoreImage& image, const H256& pinned_root,
                          const H256& head_root, uint64_t max_page_epoch,
                          uint64_t store_epoch);

/// A bundle's outcome status: kOk passes; an HEVM kMemoryOverflow abort (the
/// paper's documented limit) passes too and is counted as a failed bundle;
/// any other status is a violation.
std::string check_status(uint64_t bundle_id, Status status);

/// Every id in [0, submitted) has exactly one outcome and no other id has.
std::string check_one_outcome_each(uint64_t submitted, std::vector<uint64_t> outcome_ids);

}  // namespace perfbench
