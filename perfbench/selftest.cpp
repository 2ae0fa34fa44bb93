// Shows each of the benchmark's checks passing on the program's real output
// and failing on a deliberately wrong input: a dropped page, skewed walks,
// a changed gas value, status or return data, a wrong pinned root, a page
// tagged past the commit, a failed bundle, and a lost or doubled outcome. Exit 0 iff every
// case behaves.
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "crypto/keccak.hpp"
#include "service/engine.hpp"
#include "workload/generator.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool passes, const std::string& verdict, const char* what) {
  const bool ok = passes ? verdict.empty() : !verdict.empty();
  std::printf("%-4s %-55s %s\n", ok ? "ok" : "FAIL", what,
              verdict.empty() ? "(passes)" : verdict.c_str());
  if (!ok) ++failures;
}

void census_cases() {
  state::WorldState world;
  const Address a = Address::from_u256(u256{0xa11ce});
  world.set_balance(a, u256{1});
  world.set_code(a, Bytes(1500, 0x5b));  // two 1 KiB code pages
  for (const uint64_t key : {0, 1, 31, 32, 1000}) world.set_storage(a, u256{key}, u256{7});
  // meta + 2 code pages + groups {0, 1, 31}
  expect(true, check_census(6, expected_sync_pages(world)), "census of a hand-built account");
  expect(false, check_census(5, expected_sync_pages(world)), "census with a page dropped");
}

struct SmallDeployment {
  node::NodeSimulator node;
  workload::WorkloadGenerator gen{workload::GeneratorConfig{.seed = 1,
                                                            .user_accounts = 8,
                                                            .erc20_contracts = 2,
                                                            .dex_pairs = 1,
                                                            .routers = 1,
                                                            .txs_per_block = 16}};
  SmallDeployment() {
    gen.deploy(node.world());
    node.produce_block({});
  }
};

void engine_cases() {
  SmallDeployment d;
  service::EngineConfig config;
  config.num_hevms = 1;
  service::PreExecutionEngine engine(d.node, config);
  if (engine.synchronize() != Status::kOk) {
    std::printf("FAIL synchronize()\n");
    ++failures;
    return;
  }
  const uint64_t installed = engine.snapshot().sync_pages_installed;
  const uint64_t census = expected_sync_pages(d.node.world());
  expect(true, check_census(installed, census), "census of a real cold sync");
  expect(false, check_census(installed - 1, census), "real cold sync with a page dropped");

  std::vector<std::vector<evm::Transaction>> bundles;
  for (const evm::Transaction& tx : d.gen.generate_block()) bundles.push_back({tx});
  const std::vector<service::SessionOutcome> outcomes = engine.execute_serial(bundles);

  const oram::ShardedOramStore& store = engine.oram_store();
  const auto walks = store.observed_walks();
  expect(true, check_uniformity(walk_uniformity(walks, store.shard_count(), store.leaf_count())),
         "walks of a real run are uniform");
  auto skewed = walks;
  for (auto& walk : skewed) walk.first = 0;
  expect(false, check_uniformity(walk_uniformity(skewed, store.shard_count(), store.leaf_count())),
         "every walk pinned to shard 0");
  auto low = walks;
  for (auto& walk : low) walk.second %= std::max<size_t>(1, store.leaf_count() / 16);
  expect(false, check_uniformity(walk_uniformity(low, store.shard_count(), store.leaf_count())),
         "every walk in the lowest leaf bin");

  const node::PinnedBlock pin = d.node.pinned_head();
  const evm::BlockContext block = d.node.block_context_at(pin.header);
  std::string all_agree;
  for (size_t i = 0; i < bundles.size() && all_agree.empty(); ++i) {
    all_agree = check_against_reference(results_of(outcomes[i].report),
                                        geth_reference(*pin.world, block, bundles[i]));
  }
  expect(true, all_agree, "every HEVM bundle agrees with GethRole");
  const auto reference = geth_reference(*pin.world, block, bundles[0]);
  auto got = results_of(outcomes[0].report);
  got[0].gas_used += 1;
  expect(false, check_against_reference(got, reference), "gas used changed by one");
  got = results_of(outcomes[0].report);
  got[0].status = got[0].status == evm::VmStatus::kSuccess ? evm::VmStatus::kRevert
                                                           : evm::VmStatus::kSuccess;
  expect(false, check_against_reference(got, reference), "status flipped");
  got = results_of(outcomes[0].report);
  got[0].output.push_back(0x01);
  expect(false, check_against_reference(got, reference), "return data extended");
  got.clear();
  expect(false, check_against_reference(got, reference), "transaction trace dropped");
}

void restart_cases() {
  durability::StoreImage image;
  const H256 root = crypto::keccak256(Bytes{1});
  image.epoch_history = {{0, crypto::keccak256(Bytes{0}), 1}, {1, root, 2}};
  image.page_tags = {{u256{1}, 0}, {u256{2}, 1}};
  expect(true, check_restart(image, root, root, 1, 1), "restart pinned at the head");
  expect(false, check_restart(image, crypto::keccak256(Bytes{2}), root, 1, 1),
         "restart pinned to a wrong root");
  expect(false, check_restart(image, root, root, 2, 1), "engine page epoch past its commit");
  image.page_tags[u256{3}] = 2;
  expect(false, check_restart(image, root, root, 1, 1), "recovered page tagged past the commit");
}

void outcome_cases() {
  expect(true, check_status(0, Status::kOk), "bundle completed");
  expect(true, check_status(0, Status::kMemoryOverflow), "memory overflow abort (counted)");
  expect(false, check_status(0, Status::kUnavailable), "bundle refused by an open breaker");
  expect(false, check_status(0, Status::kAuthFailed), "bundle failed on a rejected seal tag");
  expect(true, check_one_outcome_each(3, {2, 0, 1}), "one outcome per bundle");
  expect(false, check_one_outcome_each(3, {0, 1}), "an outcome lost");
  expect(false, check_one_outcome_each(3, {0, 1, 1, 2}), "an outcome doubled");
  expect(false, check_one_outcome_each(3, {0, 1, 2, 3}), "an outcome never submitted");
}

}  // namespace

int main() {
  census_cases();
  engine_cases();
  restart_cases();
  outcome_cases();
  std::printf("%s\n", failures == 0 ? "all checks behave" : "SOME CHECKS MISBEHAVE");
  return failures == 0 ? 0 : 1;
}
