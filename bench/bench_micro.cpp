// Wall-clock microbenchmarks (google-benchmark) of the real substrate —
// demonstrating that the cryptography, ORAM and EVM in this repository are
// actual implementations, not stubs. Reported times are host times and are
// NOT the paper's numbers (those come from the simulated cost models; see
// DESIGN.md §1).
//
// Two entry modes:
//   default                      google-benchmark suite; all standard
//                                --benchmark_* flags pass through (CI
//                                perf-smoke relies on this).
//   --compare [--quick] [--out]  fast-dispatch comparison harness: per
//                                opcode-family wall ns/op on the reference
//                                switch loop vs the pre-decoded fast path,
//                                plus the gated geomean speedup consumed by
//                                ci/check_bench.py --mode micro. --quick
//                                shrinks the time budget for CI;
//                                --quick implies --compare.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "crypto/aes.hpp"
#include "crypto/keccak.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "evm/assembler.hpp"
#include "evm/interpreter.hpp"
#include "oram/path_oram.hpp"
#include "oram/sharded.hpp"
#include "state/overlay.hpp"
#include "trie/mpt.hpp"
#include "workload/contracts.hpp"

namespace {

using namespace hardtape;

void BM_Keccak256_1KB(benchmark::State& state) {
  const Bytes data = Random(1).bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::keccak256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Keccak256_1KB);

void BM_Sha256_1KB(benchmark::State& state) {
  const Bytes data = Random(2).bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

// AES-128-GCM seal through a keyed context (AES-NI + PCLMULQDQ when the
// CPU has them), `range(0)` bytes, no AAD.
void BM_AesGcm(benchmark::State& state) {
  const crypto::AesGcm gcm(crypto::AesKey128{});
  crypto::GcmNonce nonce{};
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes data = Random(3).bytes(size);
  Bytes out(size);
  for (auto _ : state) {
    ++nonce[0];
    benchmark::DoNotOptimize(gcm.seal(nonce, data, {}, out.data()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
  state.SetLabel(gcm.hardware() ? "aes-ni" : "portable");
}
BENCHMARK(BM_AesGcm)->Arg(1024);

// One ORAM slot (32-B id + 1 KB page) sealed and opened again, the pair a
// path walk does ~48 times.
void BM_SlotSeal(benchmark::State& state) {
  const crypto::AesGcm gcm(crypto::AesKey128{});
  Random rng(5);
  const Bytes plaintext = rng.bytes(32 + 1024);
  oram::SealedSlot slot;
  Bytes opened;
  for (auto _ : state) {
    oram::seal_slot(gcm, rng, plaintext, slot);
    benchmark::DoNotOptimize(oram::open_slot(gcm, slot, opened));
    benchmark::DoNotOptimize(opened.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * 2 * plaintext.size()));
}
BENCHMARK(BM_SlotSeal);

void BM_EcdsaSign(benchmark::State& state) {
  const crypto::PrivateKey key(u256{12345});
  const H256 digest = crypto::keccak256("benchmark");
  for (auto _ : state) benchmark::DoNotOptimize(key.sign(digest));
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const crypto::PrivateKey key(u256{12345});
  const H256 digest = crypto::keccak256("benchmark");
  const auto sig = key.sign(digest);
  const auto pub = key.public_key();
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ecdsa_verify(pub, digest, sig));
}
BENCHMARK(BM_EcdsaVerify);

void BM_U256_MulMod(benchmark::State& state) {
  const u256 a = crypto::keccak256("a").to_u256();
  const u256 b = crypto::keccak256("b").to_u256();
  const u256 m = crypto::keccak256("m").to_u256();
  for (auto _ : state) benchmark::DoNotOptimize(u256::mulmod(a, b, m));
}
BENCHMARK(BM_U256_MulMod);

void BM_MptInsert(benchmark::State& state) {
  Random rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    trie::MerklePatriciaTrie trie;
    std::vector<std::pair<Bytes, Bytes>> kvs;
    for (int i = 0; i < 64; ++i) kvs.emplace_back(rng.bytes(32), rng.bytes(32));
    state.ResumeTiming();
    for (const auto& [k, v] : kvs) trie.put(k, v);
    benchmark::DoNotOptimize(trie.root_hash());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MptInsert);

void BM_OramAccess(benchmark::State& state) {
  oram::OramServer server(oram::OramConfig{.block_size = 1024, .capacity = 1024});
  crypto::AesKey128 key{};
  oram::OramClient client(server, key, 1);
  Random rng(4);
  for (uint64_t i = 0; i < 256; ++i) {
    client.write(crypto::keccak256(u256{i}.to_be_bytes_vec()).to_u256(),
                 Bytes(1024, static_cast<uint8_t>(i)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.read(crypto::keccak256(u256{i++ % 256}.to_be_bytes_vec()).to_u256()));
  }
}
BENCHMARK(BM_OramAccess);

// Reads through the sharded store at perfbench steady-full's geometry: 8
// shards over capacity 8192 (2048 leaves and 48 slots per path each), 1,401
// installed pages. Each thread reads its own residue class of the pages, so
// two threads never race on one id; with two threads the walks of different
// shards run in parallel, as under the engine's two workers.
void BM_ShardedOramRead(benchmark::State& state) {
  constexpr uint64_t kPages = 1401;
  static const auto ids = [] {
    std::vector<oram::BlockId> out;
    for (uint64_t i = 0; i < kPages; ++i) {
      out.push_back(crypto::keccak256(u256{i}.to_be_bytes_vec()).to_u256());
    }
    return out;
  }();
  static oram::ShardedOramStore& store = []() -> oram::ShardedOramStore& {
    static oram::ShardedOramStore sharded(
        oram::ShardedOramStore::partition(
            oram::OramConfig{.block_size = 1024, .capacity = 8192, .max_stash_blocks = 512},
            8),
        crypto::AesKey128{}, 1);
    for (uint64_t i = 0; i < kPages; ++i) sharded.write(ids[i], Bytes(1024, static_cast<uint8_t>(i)));
    return sharded;
  }();
  const auto threads = static_cast<uint64_t>(state.threads());
  Random rng(100 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const uint64_t slot = rng.uniform(kPages / threads);
    benchmark::DoNotOptimize(
        store.read(ids[slot * threads + static_cast<uint64_t>(state.thread_index())]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedOramRead)->Threads(1)->Threads(2)->UseRealTime();

void BM_EvmErc20Transfer(benchmark::State& state) {
  const auto engine = static_cast<evm::EngineKind>(state.range(0));
  state::InMemoryState base;
  Address token, alice, bob;
  token.bytes[19] = 0x10;
  alice.bytes[19] = 0xA1;
  bob.bytes[19] = 0xB0;
  // Minimal transfer loop: reuse the evm_test-style contract via assembler.
  base.put_code(token, evm::assemble(R"(
    PUSH1 0x24 CALLDATALOAD
    CALLER SLOAD
    DUP2 SWAP1 SUB
    CALLER SSTORE
    PUSH1 0x04 CALLDATALOAD
    DUP1 SLOAD DUP3 ADD SWAP1 SSTORE
    PUSH1 0x01 PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN
  )"));
  base.put_account(alice, state::Account{.balance = u256{1} << 80});
  base.put_storage(token, alice.to_u256(), u256{1} << 70);

  evm::Transaction tx;
  tx.from = alice;
  tx.to = token;
  Bytes data(4, 0);
  append(data, bob.to_u256().to_be_bytes_vec());
  append(data, u256{1}.to_be_bytes_vec());
  tx.data = data;
  tx.gas_limit = 200'000;

  for (auto _ : state) {
    state::OverlayState overlay(base);
    evm::Interpreter interp(overlay, evm::BlockContext{});
    interp.set_engine(engine);
    benchmark::DoNotOptimize(interp.execute_transaction(tx));
  }
}
BENCHMARK(BM_EvmErc20Transfer)
    ->Arg(static_cast<int>(evm::EngineKind::kReference))
    ->Arg(static_cast<int>(evm::EngineKind::kFast))
    ->ArgNames({"engine"});

// ===========================================================================
// Fast-dispatch comparison harness (--compare).
//
// One looping program per opcode family, executed op-for-op identically by
// both engines (asserted before any timing — a perf number from a diverging
// run is meaningless). Gated families exercise what the fast path
// accelerates (ALU dispatch, stack traffic, static-offset fusion, jump
// pre-resolution); report-only families are dominated by shared costs
// (keccak, the state journal, call machinery) and are recorded for context
// but excluded from the geomean gate.
// ===========================================================================

namespace micro {

struct Family {
  std::string name;
  bool gated;
  Bytes code;
  Bytes input;
  uint64_t gas;
};

struct FamilyResult {
  std::string name;
  bool gated = false;
  uint64_t ops = 0;
  double ref_ns_per_op = 0.0;
  double fast_ns_per_op = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

class OpCounter : public evm::ExecutionObserver {
 public:
  void on_step(const StepInfo&) override { ++ops; }
  uint64_t ops = 0;
};

// Wraps `body` (which must be stack-neutral) in a counted loop so family
// programs retire ~iters * body_ops instructions per call.
std::string loop_program(int iters, const std::string& body) {
  std::string src;
  src += "PUSH2 " + std::to_string(iters) + "\n";
  src += "loop:\nJUMPDEST\n";
  src += body;
  // counter -= 1; loop while non-zero (SUB computes top-of-stack minus next,
  // so swap the decrement under the counter first).
  src += "PUSH1 1\nSWAP1\nSUB\nDUP1\nPUSH @loop\nJUMPI\nSTOP\n";
  return src;
}

std::string repeat(const std::string& unit, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += unit;
  return out;
}

// Jump chains need one label per hop; generate them numbered.
std::string control_body(int hops) {
  std::string out;
  for (int i = 0; i < hops; ++i) {
    const std::string tag = std::to_string(i);
    out += "PUSH @cj" + tag + "\nJUMP\ncj" + tag + ":\nJUMPDEST\n";
    out += "PUSH1 1\nPUSH @ci" + tag + "\nJUMPI\nci" + tag + ":\nJUMPDEST\n";
  }
  return out;
}

std::vector<Family> build_families(bool quick) {
  const int iters = quick ? 512 : 4096;
  std::vector<Family> families;
  const auto add = [&](const std::string& name, bool gated, const std::string& body,
                       uint64_t gas) {
    families.push_back({name, gated, evm::assemble(loop_program(iters, body)), {}, gas});
  };

  add("arith", true,
      repeat("PUSH1 7\nPUSH1 13\nADD\nPUSH1 3\nMUL\nPUSH1 5\nSUB\n"
             "PUSH1 2\nDIV\nPUSH1 3\nMOD\nPOP\n", 4),
      100'000'000);
  add("bitwise", true,
      repeat("PUSH1 0xF0\nPUSH1 0x0F\nAND\nPUSH1 0xCC\nOR\nPUSH1 0xAA\nXOR\n"
             "NOT\nPUSH1 2\nSHL\nPUSH1 1\nSHR\nPOP\n", 4),
      100'000'000);
  add("stack", true,
      repeat("PUSH1 1\nPUSH1 2\nPUSH1 3\nDUP3\nDUP1\nSWAP2\nPOP\nPOP\n"
             "SWAP1\nPOP\nPOP\nPOP\n", 4),
      100'000'000);
  add("memory-static", true,
      repeat("PUSH1 0x42\nPUSH1 0x00\nMSTORE\nPUSH1 0x00\nMLOAD\n"
             "PUSH1 0x20\nMSTORE\nPUSH1 0x20\nMLOAD\nPOP\n", 4),
      100'000'000);
  add("control", true, control_body(6), 100'000'000);
  add("env", false,
      repeat("ADDRESS\nPOP\nCALLER\nPOP\nCALLVALUE\nPOP\nPC\nPOP\nGAS\nPOP\n"
             "MSIZE\nPOP\nCODESIZE\nPOP\nCALLDATASIZE\nPOP\n", 2),
      100'000'000);
  add("keccak", false, "PUSH1 0x20\nPUSH1 0x00\nKECCAK256\nPOP\n", 100'000'000);
  add("storage", false, "PUSH1 1\nPUSH1 5\nSSTORE\nPUSH1 5\nSLOAD\nPOP\n",
      1'000'000'000);

  // Whole-workload context point: the real ERC-20 transfer path (calldata
  // decode, two storage slots, a log-free return) — storage journal and
  // account bookkeeping dominate, so it is report-only.
  Address bob;
  bob.bytes[19] = 0xB0;
  families.push_back({"erc20-workload", false, workload::erc20_code(),
                      workload::erc20_transfer(bob, u256{1}), 500'000});
  return families;
}

struct RunOutcome {
  evm::VmStatus status;
  uint64_t gas_left;
  Bytes output;
  bool operator==(const RunOutcome&) const = default;
};

Address contract_address() {
  Address a{};
  a.bytes[19] = 0xCC;
  return a;
}

Address caller_address() {
  Address a{};
  a.bytes[19] = 0xAA;
  return a;
}

RunOutcome run_family(const state::InMemoryState& base, const Family& fam,
                      evm::EngineKind engine, evm::ExecutionObserver* obs) {
  state::OverlayState overlay(base);
  evm::Interpreter interp(overlay, evm::BlockContext{});
  interp.set_engine(engine);
  if (obs != nullptr) interp.set_observer(obs);
  evm::Interpreter::Message msg;
  msg.code_address = contract_address();
  msg.recipient = contract_address();
  msg.sender = caller_address();
  msg.origin = caller_address();
  msg.input = fam.input;
  msg.gas = fam.gas;
  msg.depth = 1;
  const evm::CallResult result = interp.call(msg);
  return {result.status, result.gas_left, result.output};
}

// Best-of-reps wall ns for one run: repeats until budget_ns is spent (>= 5
// reps) and keeps the minimum, which is robust against scheduler and
// frequency-scaling interference on shared CI runners.
double time_family(const state::InMemoryState& base, const Family& fam,
                   evm::EngineKind engine, double budget_ns) {
  using clock = std::chrono::steady_clock;
  // Warm-up: first decode + page faults out of the measurement.
  run_family(base, fam, engine, nullptr);
  double best = 0.0, total = 0.0;
  int reps = 0;
  while (reps < 5 || total < budget_ns) {
    const auto t0 = clock::now();
    run_family(base, fam, engine, nullptr);
    const auto t1 = clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    total += ns;
    if (reps == 0 || ns < best) best = ns;
    ++reps;
  }
  return best;
}

int run_compare(bool quick, const std::string& out_path) {
  const double budget_ns = quick ? 1.5e8 : 4e8;  // per engine per family
  const std::vector<Family> families = build_families(quick);

  std::vector<FamilyResult> results;
  double log_sum = 0.0;
  int gated_count = 0;
  bool all_identical = true;

  std::printf("%-16s %10s %12s %12s %9s %6s\n", "family", "ops/run", "ref ns/op",
              "fast ns/op", "speedup", "gated");
  for (const Family& fam : families) {
    state::InMemoryState base;
    base.put_code(contract_address(), fam.code);
    base.put_account(caller_address(), state::Account{.balance = u256{1} << 80});
    if (fam.name == "erc20-workload") {
      base.put_storage(contract_address(), caller_address().to_u256(), u256{1} << 70);
    }

    // Identity precondition: both engines, observed and unobserved, must
    // agree bit-for-bit before any number is recorded.
    OpCounter ref_count, fast_count;
    const RunOutcome ref_obs = run_family(base, fam, evm::EngineKind::kReference, &ref_count);
    const RunOutcome fast_obs = run_family(base, fam, evm::EngineKind::kFast, &fast_count);
    const RunOutcome ref_plain = run_family(base, fam, evm::EngineKind::kReference, nullptr);
    const RunOutcome fast_plain = run_family(base, fam, evm::EngineKind::kFast, nullptr);

    FamilyResult r;
    r.name = fam.name;
    r.gated = fam.gated;
    r.ops = ref_count.ops;
    r.identical = ref_obs == fast_obs && ref_plain == fast_plain &&
                  ref_plain == ref_obs && ref_count.ops == fast_count.ops &&
                  ref_obs.status == evm::VmStatus::kSuccess;
    if (!r.identical) {
      all_identical = false;
      std::fprintf(stderr, "FAIL: %s diverged between engines (status %d/%d, gas %llu/%llu)\n",
                   fam.name.c_str(), static_cast<int>(ref_obs.status),
                   static_cast<int>(fast_obs.status),
                   static_cast<unsigned long long>(ref_obs.gas_left),
                   static_cast<unsigned long long>(fast_obs.gas_left));
    }

    const double ref_best = time_family(base, fam, evm::EngineKind::kReference, budget_ns);
    const double fast_best = time_family(base, fam, evm::EngineKind::kFast, budget_ns);
    r.ref_ns_per_op = ref_best / static_cast<double>(r.ops);
    r.fast_ns_per_op = fast_best / static_cast<double>(r.ops);
    r.speedup = r.fast_ns_per_op > 0 ? r.ref_ns_per_op / r.fast_ns_per_op : 0.0;
    if (r.gated) {
      log_sum += std::log(r.speedup);
      ++gated_count;
    }
    std::printf("%-16s %10llu %12.2f %12.2f %8.2fx %6s\n", r.name.c_str(),
                static_cast<unsigned long long>(r.ops), r.ref_ns_per_op,
                r.fast_ns_per_op, r.speedup, r.gated ? "yes" : "no");
    results.push_back(std::move(r));
  }

  const double geomean = gated_count > 0 ? std::exp(log_sum / gated_count) : 0.0;
  std::printf("\ngeomean speedup over %d gated families: %.2fx (identical: %s)\n",
              gated_count, geomean, all_identical ? "yes" : "NO");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"hardtape-micro-compare-v1\",\n");
  std::fprintf(f, "  \"quick\": %s,\n  \"families\": [\n", quick ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const FamilyResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"gated\": %s, \"ops_per_run\": %llu, "
                 "\"ref_ns_per_op\": %.3f, \"fast_ns_per_op\": %.3f, "
                 "\"speedup\": %.3f, \"identical\": %s}%s\n",
                 r.name.c_str(), r.gated ? "true" : "false",
                 static_cast<unsigned long long>(r.ops), r.ref_ns_per_op,
                 r.fast_ns_per_op, r.speedup, r.identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"geomean_gated_speedup\": %.3f\n}\n", geomean);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}

}  // namespace micro

}  // namespace

int main(int argc, char** argv) {
  bool compare = false, quick = false;
  std::string out = "BENCH_micro_compare.json";
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--compare") {
      compare = true;
    } else if (arg == "--quick") {
      quick = true;
      compare = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (compare) return micro::run_compare(quick, out);

  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
