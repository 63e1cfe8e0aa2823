#include "bdb/crypto.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace fame::bdb {

namespace {
constexpr uint32_t kDelta = 0x9e3779b9u;
constexpr int kRounds = 64;

// Four 32-bit lanes: SSE2 on x86-64, NEON on AArch64, scalar code elsewhere.
typedef uint32_t Lanes __attribute__((vector_size(16)));
constexpr size_t kLanes = sizeof(Lanes) / sizeof(uint32_t);
// A pass runs up to two vectors, whose round chains overlap; a pass of at
// most kLanes blocks runs one vector, which finishes sooner.
constexpr size_t kPassBlocks = 2 * kLanes;

// CBC-decrypts `blocks` (1..kLanes * V) consecutive 8-byte blocks from
// `src` into `dst`, using V vectors whose round chains overlap. `prev` holds
// the words of the ciphertext block before `src` (the IV for the first
// pass) and is left holding the pass's last ciphertext block. The rounds
// are XteaDecryptBlock's, run on every block at once.
template <size_t V>
void DecryptPass(const uint32_t key[4], const char* src, size_t blocks,
                 uint32_t prev[2], char* dst) {
  Lanes v0[V] = {}, v1[V] = {};
  for (size_t i = 0; i < blocks; ++i) {
    uint32_t w[2];
    std::memcpy(w, src + 8 * i, 8);
    v0[i / kLanes][i % kLanes] = w[0];
    v1[i / kLanes][i % kLanes] = w[1];
  }
  uint32_t sum = static_cast<uint32_t>(kDelta * kRounds);
  for (int r = 0; r < kRounds; ++r) {
    const uint32_t k1 = sum + key[(sum >> 11) & 3];
    for (size_t j = 0; j < V; ++j) {
      v1[j] -= (((v0[j] << 4) ^ (v0[j] >> 5)) + v0[j]) ^ k1;
    }
    sum -= kDelta;
    const uint32_t k0 = sum + key[sum & 3];
    for (size_t j = 0; j < V; ++j) {
      v0[j] -= (((v1[j] << 4) ^ (v1[j] >> 5)) + v1[j]) ^ k0;
    }
  }
  for (size_t i = 0; i < blocks; ++i) {
    uint32_t w[2] = {v0[i / kLanes][i % kLanes] ^ prev[0],
                     v1[i / kLanes][i % kLanes] ^ prev[1]};
    std::memcpy(dst + 8 * i, w, 8);
    std::memcpy(prev, src + 8 * i, 8);
  }
}
}  // namespace

void XteaEncryptBlock(const uint32_t key[4], uint32_t block[2]) {
  uint32_t v0 = block[0], v1 = block[1], sum = 0;
  for (int i = 0; i < kRounds; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
  }
  block[0] = v0;
  block[1] = v1;
}

void XteaDecryptBlock(const uint32_t key[4], uint32_t block[2]) {
  uint32_t v0 = block[0], v1 = block[1];
  uint32_t sum = static_cast<uint32_t>(kDelta * kRounds);
  for (int i = 0; i < kRounds; ++i) {
    v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
    sum -= kDelta;
    v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
  }
  block[0] = v0;
  block[1] = v1;
}

ValueCipher::ValueCipher(const std::string& passphrase) {
  // Key derivation: four lanes of iterated FNV-1a over the passphrase with
  // distinct seeds. Fine for feature parity, not for real security.
  for (int lane = 0; lane < 4; ++lane) {
    uint32_t h = 2166136261u ^ (0x5bd1e995u * static_cast<uint32_t>(lane + 1));
    for (int iter = 0; iter < 16; ++iter) {
      for (unsigned char c : passphrase) {
        h ^= c;
        h *= 16777619u;
      }
      h ^= h >> 13;
    }
    key_[static_cast<size_t>(lane)] = h;
  }
  iv_counter_ = (static_cast<uint64_t>(key_[0]) << 32) | key_[1];
}

void ValueCipher::EncryptInto(const Slice& plaintext, std::string* out) {
  // Pad to a multiple of 8 with PKCS#7-style bytes (pad length 1..8). Only
  // the last block holds padding, so only it is assembled here.
  const size_t full = plaintext.size() - plaintext.size() % 8;
  const size_t tail = plaintext.size() - full;
  const size_t pad = 8 - tail;
  char last[8];
  if (tail > 0) std::memcpy(last, plaintext.data() + full, tail);
  std::memset(last + tail, static_cast<int>(pad), pad);

  out->resize(8 + full + 8);
  char* dst = out->data();
  const uint64_t iv = iv_counter_++;
  EncodeFixed64(dst, iv);
  uint32_t block[2] = {static_cast<uint32_t>(iv),
                       static_cast<uint32_t>(iv >> 32)};
  for (size_t off = 0; off <= full; off += 8) {
    uint32_t in[2];
    std::memcpy(in, off < full ? plaintext.data() + off : last, 8);
    block[0] ^= in[0];
    block[1] ^= in[1];
    XteaEncryptBlock(key_.data(), block);
    std::memcpy(dst + 8 + off, block, 8);
  }
}

Status ValueCipher::DecryptInto(const Slice& ciphertext,
                                std::string* out) const {
  if (ciphertext.size() < 16 || (ciphertext.size() - 8) % 8 != 0) {
    out->clear();
    return Status::Corruption("ciphertext framing invalid");
  }
  const uint64_t iv = DecodeFixed64(ciphertext.data());
  uint32_t prev[2] = {static_cast<uint32_t>(iv),
                      static_cast<uint32_t>(iv >> 32)};
  const size_t n = ciphertext.size() - 8;
  out->resize(n);
  char* dst = out->data();
  for (size_t off = 0; off < n; off += 8 * kPassBlocks) {
    const char* src = ciphertext.data() + 8 + off;
    const size_t blocks = std::min(kPassBlocks, (n - off) / 8);
    if (blocks > kLanes) {
      DecryptPass<2>(key_.data(), src, blocks, prev, dst + off);
    } else {
      DecryptPass<1>(key_.data(), src, blocks, prev, dst + off);
    }
  }
  const unsigned char pad = static_cast<unsigned char>(dst[n - 1]);
  bool padded = pad != 0 && pad <= 8 && pad <= n;
  for (size_t i = n - pad; padded && i < n; ++i) {
    padded = static_cast<unsigned char>(dst[i]) == pad;
  }
  if (!padded) {
    out->clear();
    return Status::Corruption("bad padding (wrong key?)");
  }
  out->resize(n - pad);
  return Status::OK();
}

}  // namespace fame::bdb
