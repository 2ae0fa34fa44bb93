// End-to-end integration tests of the pre-execution service (paper Fig. 3).
#include <gtest/gtest.h>

#include "service/pre_execution.hpp"
#include "workload/generator.hpp"

namespace hardtape::service {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() {
    gen_.deploy(node_.world());
    node_.produce_block({});
  }

  PreExecutionService::Config make_config(SecurityConfig security) {
    PreExecutionService::Config config;
    config.security = security;
    config.oram = oram::OramConfig{.block_size = oram::kPageSize, .capacity = 4096};
    config.perform_channel_crypto = false;  // keep tests fast; crypto has its own tests
    return config;
  }

  std::vector<evm::Transaction> small_bundle() {
    evm::Transaction tx;
    tx.from = gen_.users()[0];
    tx.to = gen_.tokens()[0];
    tx.data = workload::erc20_transfer(gen_.users()[1], u256{10});
    tx.gas_limit = 500'000;
    return {tx};
  }

  node::NodeSimulator node_;
  workload::WorkloadGenerator gen_{workload::GeneratorConfig{
      .user_accounts = 8, .erc20_contracts = 2, .dex_pairs = 1, .routers = 1}};
};

TEST_F(ServiceTest, RawConfigExecutesBundle) {
  PreExecutionService service(node_, make_config(SecurityConfig::raw()));
  ASSERT_EQ(service.synchronize(), Status::kOk);
  const auto outcome = service.pre_execute(small_bundle());
  EXPECT_EQ(outcome.status, Status::kOk);
  ASSERT_EQ(outcome.report.transactions.size(), 1u);
  EXPECT_EQ(outcome.report.transactions[0].status, evm::VmStatus::kSuccess);
  EXPECT_GT(outcome.end_to_end_ns, 0u);
  EXPECT_EQ(outcome.query_stats.oram_queries, 0u);  // all local in -raw
  EXPECT_GT(outcome.query_stats.local_reads, 0u);
  EXPECT_EQ(outcome.crypto_time_ns, 0u);
}

TEST_F(ServiceTest, FullConfigRoutesThroughOram) {
  PreExecutionService service(node_, make_config(SecurityConfig::full()));
  ASSERT_EQ(service.synchronize(), Status::kOk);
  const auto outcome = service.pre_execute(small_bundle());
  EXPECT_EQ(outcome.status, Status::kOk);
  EXPECT_EQ(outcome.report.transactions[0].status, evm::VmStatus::kSuccess);
  EXPECT_GT(outcome.query_stats.kv_queries, 0u);
  EXPECT_GT(outcome.query_stats.code_queries, 0u);
  EXPECT_GT(outcome.query_stats.oram_time_ns, 0u);
  // The observed timeline covers all demand queries.
  EXPECT_EQ(outcome.observed_timeline.size(), outcome.query_stats.demand_timeline.size());
  // ORAM server actually served paths.
  EXPECT_GT(service.oram_server().access_count(), 0u);
}

TEST_F(ServiceTest, ResultsIdenticalAcrossConfigs) {
  // Security features must not change execution semantics: same traces,
  // same gas, same storage writes under -raw and -full.
  PreExecutionService raw_service(node_, make_config(SecurityConfig::raw()));
  PreExecutionService full_service(node_, make_config(SecurityConfig::full()));
  ASSERT_EQ(full_service.synchronize(), Status::kOk);

  const auto raw = raw_service.pre_execute(small_bundle());
  const auto full = full_service.pre_execute(small_bundle());
  ASSERT_EQ(raw.report.transactions.size(), full.report.transactions.size());
  const auto& r = raw.report.transactions[0];
  const auto& f = full.report.transactions[0];
  EXPECT_EQ(r.status, f.status);
  EXPECT_EQ(r.gas_used, f.gas_used);
  EXPECT_EQ(r.return_data, f.return_data);
  ASSERT_EQ(r.storage_writes.size(), f.storage_writes.size());
  for (size_t i = 0; i < r.storage_writes.size(); ++i) {
    EXPECT_EQ(r.storage_writes[i].value, f.storage_writes[i].value);
  }
}

TEST_F(ServiceTest, SecurityLaddersMonotonicallySlower) {
  // Fig. 4's qualitative shape: each added protection costs time.
  uint64_t previous = 0;
  for (const SecurityConfig config :
       {SecurityConfig::raw(), SecurityConfig::E(), SecurityConfig::ES(),
        SecurityConfig::ESO(), SecurityConfig::full()}) {
    PreExecutionService service(node_, make_config(config));
    ASSERT_EQ(service.synchronize(), Status::kOk);
    const auto outcome = service.pre_execute(small_bundle());
    EXPECT_EQ(outcome.status, Status::kOk) << config.name();
    EXPECT_GT(outcome.end_to_end_ns, previous)
        << config.name() << " not slower than the previous tier";
    previous = outcome.end_to_end_ns;
  }
}

TEST_F(ServiceTest, PreExecutionNeverPersists) {
  PreExecutionService service(node_, make_config(SecurityConfig::raw()));
  const H256 root_before = node_.world().state_root();
  service.pre_execute(small_bundle());
  EXPECT_EQ(node_.world().state_root(), root_before);
}

TEST_F(ServiceTest, BundleTransactionsShareState) {
  // Two transfers in one bundle: the second sees the first's effects.
  evm::Transaction tx1 = small_bundle()[0];
  evm::Transaction tx2 = tx1;
  PreExecutionService service(node_, make_config(SecurityConfig::raw()));
  const auto outcome = service.pre_execute({tx1, tx2});
  ASSERT_EQ(outcome.report.transactions.size(), 2u);
  EXPECT_EQ(outcome.report.transactions[1].status, evm::VmStatus::kSuccess);
  // Final balances show both transfers (20 total moved).
  bool found = false;
  for (const auto& write : outcome.report.transactions[1].storage_writes) {
    if (write.key == gen_.users()[1].to_u256()) {
      EXPECT_EQ(write.value, u256{1'000'000'020});  // pre-mint + 2 transfers
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ServiceTest, OramQueriesDominateFullConfigTime) {
  PreExecutionService service(node_, make_config(SecurityConfig::full()));
  ASSERT_EQ(service.synchronize(), Status::kOk);
  const auto outcome = service.pre_execute(small_bundle());
  // In -full, ORAM stalls should be the dominant execution component
  // (paper: "the performance bottleneck lies in the security features").
  EXPECT_GT(outcome.query_stats.oram_time_ns, outcome.hevm_time_ns / 2);
}

TEST_F(ServiceTest, RealChannelCryptoPath) {
  auto config = make_config(SecurityConfig::ES());
  config.perform_channel_crypto = true;
  PreExecutionService service(node_, config);
  const auto outcome = service.pre_execute(small_bundle());
  EXPECT_EQ(outcome.status, Status::kOk);
  EXPECT_GT(outcome.crypto_time_ns, 0u);
}

TEST_F(ServiceTest, DeepCallBundleThroughFullStack) {
  evm::Transaction tx;
  tx.from = gen_.users()[0];
  tx.to = gen_.routers()[0];
  tx.data = workload::router_route(4, gen_.tokens()[0], gen_.users()[2], u256{5});
  tx.gas_limit = 5'000'000;
  PreExecutionService service(node_, make_config(SecurityConfig::full()));
  ASSERT_EQ(service.synchronize(), Status::kOk);
  const auto outcome = service.pre_execute({tx});
  EXPECT_EQ(outcome.report.transactions[0].status, evm::VmStatus::kSuccess);
  // Multiple contracts' code fetched through the ORAM.
  EXPECT_GT(outcome.query_stats.code_queries, 2u);
}

TEST_F(ServiceTest, ThroughputFormula) {
  PreExecutionService service(node_, make_config(SecurityConfig::full()));
  // Paper §VI-D: 3 cores at 164 ms/tx ~= 18 tx/s.
  EXPECT_NEAR(service.throughput_tx_per_s(164'400'000), 18.2, 0.5);
}

}  // namespace
}  // namespace hardtape::service
