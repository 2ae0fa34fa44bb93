#include "checks.hpp"

#include <algorithm>
#include <set>

#include "hevm/baseline.hpp"
#include "sim/clock.hpp"

namespace perfbench {

namespace {
constexpr uint64_t kPageBytes = 1024;
constexpr uint64_t kSlotsPerGroup = 32;
constexpr size_t kLeafBins = 16;

double chi2_per_df(const std::vector<uint64_t>& observed, const std::vector<double>& expected) {
  if (observed.size() < 2) return 0;
  double chi2 = 0;
  for (size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0) continue;
    const double d = static_cast<double>(observed[i]) - expected[i];
    chi2 += d * d / expected[i];
  }
  return chi2 / static_cast<double>(observed.size() - 1);
}
}  // namespace

uint64_t expected_sync_pages(const state::WorldState& world) {
  uint64_t pages = 0;
  for (const Address& addr : world.all_accounts()) {
    pages += 1;  // account meta page
    pages += (world.code(addr).size() + kPageBytes - 1) / kPageBytes;
    std::set<u256> groups;
    for (const u256& key : world.storage_keys(addr)) groups.insert(key / u256{kSlotsPerGroup});
    pages += groups.size();
  }
  return pages;
}

std::string check_census(uint64_t installed_pages, uint64_t expected_pages) {
  if (installed_pages == expected_pages) return {};
  return "cold sync installed " + std::to_string(installed_pages) +
         " pages, the world-state census counts " + std::to_string(expected_pages);
}

Uniformity walk_uniformity(const std::vector<std::pair<uint32_t, uint64_t>>& walks,
                           size_t shard_count, size_t leaves_per_shard) {
  Uniformity u;
  u.walks = walks.size();
  if (walks.empty() || shard_count == 0 || leaves_per_shard == 0) return u;
  const size_t bins = std::min(kLeafBins, leaves_per_shard);
  std::vector<uint64_t> per_shard(shard_count, 0);
  std::vector<uint64_t> per_bin(bins, 0);
  for (const auto& [shard, leaf] : walks) {
    if (shard >= shard_count || leaf >= leaves_per_shard) {
      // A walk outside the geometry can never come from a uniform draw.
      u.shard_chi2_per_df = u.leaf_chi2_per_df = 1e9;
      return u;
    }
    ++per_shard[shard];
    ++per_bin[leaf * bins / leaves_per_shard];
  }
  const double n = static_cast<double>(walks.size());
  std::vector<double> shard_expected(shard_count, n / static_cast<double>(shard_count));
  std::vector<double> bin_expected(bins, 0);
  for (size_t leaf_bin = 0; leaf_bin < bins; ++leaf_bin) {
    const size_t lo = (leaf_bin * leaves_per_shard + bins - 1) / bins;
    const size_t hi = ((leaf_bin + 1) * leaves_per_shard + bins - 1) / bins;
    bin_expected[leaf_bin] = n * static_cast<double>(hi - lo) /
                             static_cast<double>(leaves_per_shard);
  }
  u.shard_chi2_per_df = chi2_per_df(per_shard, shard_expected);
  u.leaf_chi2_per_df = chi2_per_df(per_bin, bin_expected);
  return u;
}

std::string check_uniformity(const Uniformity& u) {
  if (u.walks == 0) return "no ORAM walks were observed";
  if (u.shard_chi2_per_df > Uniformity::kMaxChi2PerDf) {
    return "walks not uniform over shards: chi2/df " + std::to_string(u.shard_chi2_per_df);
  }
  if (u.leaf_chi2_per_df > Uniformity::kMaxChi2PerDf) {
    return "walks not uniform over leaves: chi2/df " + std::to_string(u.leaf_chi2_per_df);
  }
  return {};
}

std::vector<TxResultView> geth_reference(const state::WorldState& world,
                                         const evm::BlockContext& block,
                                         const std::vector<evm::Transaction>& bundle) {
  sim::SimClock clock;
  hevm::GethRole geth(world, block, clock);
  std::vector<TxResultView> out;
  out.reserve(bundle.size());
  for (const evm::Transaction& tx : bundle) {
    const hevm::BaselineResult r = geth.execute(tx);
    out.push_back({r.tx.status, r.tx.gas_used, r.tx.output});
  }
  return out;
}

std::vector<TxResultView> results_of(const hevm::BundleReport& report) {
  std::vector<TxResultView> out;
  out.reserve(report.transactions.size());
  for (const hevm::TxTraceReport& tx : report.transactions) {
    out.push_back({tx.status, tx.gas_used, tx.return_data});
  }
  return out;
}

std::string check_against_reference(const std::vector<TxResultView>& hevm,
                                    const std::vector<TxResultView>& reference) {
  if (hevm.size() != reference.size()) {
    return "HEVM returned " + std::to_string(hevm.size()) +
           " transaction traces for a bundle of " + std::to_string(reference.size());
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    const TxResultView& got = hevm[i];
    const TxResultView& want = reference[i];
    const std::string where = "tx " + std::to_string(i) + ": ";
    if (got.status != want.status) {
      return where + "status " + evm::to_string(got.status) + " vs GethRole " +
             evm::to_string(want.status);
    }
    if (got.gas_used != want.gas_used) {
      return where + "gas " + std::to_string(got.gas_used) + " vs GethRole " +
             std::to_string(want.gas_used);
    }
    if (got.output != want.output) return where + "return data differs from GethRole";
  }
  return {};
}

std::string check_restart(const durability::StoreImage& image, const H256& pinned_root,
                          const H256& head_root, uint64_t max_page_epoch,
                          uint64_t store_epoch) {
  if (pinned_root != head_root) return "warm restart is not pinned at the node head";
  const uint64_t committed =
      image.epoch_history.empty() ? 0 : image.epoch_history.back().epoch;
  for (const auto& [page, epoch] : image.page_tags) {
    if (epoch > committed) {
      return "recovered page tagged epoch " + std::to_string(epoch) + " > committed " +
             std::to_string(committed);
    }
  }
  if (max_page_epoch > store_epoch) {
    return "engine max page epoch " + std::to_string(max_page_epoch) + " > store epoch " +
           std::to_string(store_epoch);
  }
  return {};
}

std::string check_status(uint64_t bundle_id, Status status) {
  if (status == Status::kOk || status == Status::kMemoryOverflow) return {};
  return "bundle " + std::to_string(bundle_id) + " failed: " + to_string(status);
}

std::string check_one_outcome_each(uint64_t submitted, std::vector<uint64_t> outcome_ids) {
  std::sort(outcome_ids.begin(), outcome_ids.end());
  for (size_t i = 0; i < outcome_ids.size(); ++i) {
    if (outcome_ids[i] >= submitted) {
      return "outcome for bundle " + std::to_string(outcome_ids[i]) + " that was never submitted";
    }
    if (i > 0 && outcome_ids[i] == outcome_ids[i - 1]) {
      return "bundle " + std::to_string(outcome_ids[i]) + " has more than one outcome";
    }
  }
  if (outcome_ids.size() != submitted) {
    return std::to_string(submitted - outcome_ids.size()) + " of " + std::to_string(submitted) +
           " submitted bundles have no outcome";
  }
  return {};
}

}  // namespace perfbench
