// Micro-benchmarks (google-benchmark) for the Crypto feature's value cipher:
// XTEA-CBC encryption (one block after another) and decryption (blocks side
// by side in vector lanes) of 10-byte values (the "value-<i>" strings of the
// Figure 1b workload), 64-byte values (perfbench's txn_write) and 1,000-byte
// values, each into a reused destination string.
#include <benchmark/benchmark.h>

#include "bdb/crypto.h"
#include "common/random.h"

namespace fame::bdb {
namespace {

std::string RandomValue(size_t len) {
  Random rng(len);
  std::string v(len, '\0');
  for (char& c : v) c = static_cast<char>(rng.Next());
  return v;
}

void BM_ValueCipherEncrypt(benchmark::State& state) {
  ValueCipher cipher("micro-crypto");
  const std::string plain = RandomValue(static_cast<size_t>(state.range(0)));
  std::string enc;
  for (auto _ : state) {
    cipher.EncryptInto(plain, &enc);
    benchmark::DoNotOptimize(enc.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ValueCipherEncrypt)->Arg(10)->Arg(64)->Arg(1000);

void BM_ValueCipherDecrypt(benchmark::State& state) {
  ValueCipher cipher("micro-crypto");
  std::string enc;
  cipher.EncryptInto(RandomValue(static_cast<size_t>(state.range(0))), &enc);
  std::string plain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.DecryptInto(enc, &plain));
    benchmark::DoNotOptimize(plain.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ValueCipherDecrypt)->Arg(10)->Arg(64)->Arg(1000);

}  // namespace
}  // namespace fame::bdb

BENCHMARK_MAIN();
