// CRYPTO feature: value encryption with XTEA-CBC.
//
// Substitution note (see DESIGN.md): Berkeley DB encrypts pages with AES.
// What Figure 1 measures is the *presence/size/cost of the crypto feature*,
// not cipher strength, so we ship a compact self-contained XTEA (64-bit
// block, 128-bit key, 64 rounds) in CBC mode, applied per value: each
// stored value is [8-byte IV][CBC ciphertext of the padded value], and the
// IV comes from a counter per cipher instance.
// NOT reviewed cryptography — do not protect real secrets with it.
//
// Decryption runs up to eight blocks of a value side by side in vector
// lanes: a CBC plaintext block depends only on its own ciphertext block and
// the one before it, and every block uses the same round keys. Encryption
// stays one block at a time, because each block's input is the previous
// block's output.
#ifndef FAME_BDB_CRYPTO_H_
#define FAME_BDB_CRYPTO_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace fame::bdb {

/// XTEA block primitives. XteaDecryptBlock is the one-block reference the
/// lane decrypt is tested against.
void XteaEncryptBlock(const uint32_t key[4], uint32_t block[2]);
void XteaDecryptBlock(const uint32_t key[4], uint32_t block[2]);

/// Value-level cipher: EncryptInto produces [8-byte IV][ciphertext of padded
/// plaintext]; DecryptInto reverses it and strips the padding. Both write
/// into a caller-owned string whose capacity is reused; the input must not
/// point into that string.
class ValueCipher {
 public:
  /// Derives the 128-bit key from a passphrase (iterated FNV mixing).
  explicit ValueCipher(const std::string& passphrase);

  void EncryptInto(const Slice& plaintext, std::string* out);
  /// Corruption for bad framing or padding (wrong key, damaged bytes); *out
  /// is then empty.
  Status DecryptInto(const Slice& ciphertext, std::string* out) const;

  std::string Encrypt(const Slice& plaintext) {
    std::string out;
    EncryptInto(plaintext, &out);
    return out;
  }
  StatusOr<std::string> Decrypt(const Slice& ciphertext) const {
    std::string out;
    FAME_RETURN_IF_ERROR(DecryptInto(ciphertext, &out));
    return out;
  }

 private:
  std::array<uint32_t, 4> key_;
  uint64_t iv_counter_;  // deterministic unique IVs per cipher instance
};

}  // namespace fame::bdb

#endif  // FAME_BDB_CRYPTO_H_
