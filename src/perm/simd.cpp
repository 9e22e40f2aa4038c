#include "perm/simd.hpp"

#include <array>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#if defined(STARRING_SIMD_DISABLED)
// Vector tiers compiled out; the dispatcher below pins to scalar.
#elif defined(__x86_64__)
#define STARRING_TIER_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define STARRING_TIER_NEON 1
#include <arm_neon.h>
#endif

namespace starring::simd {
namespace {

inline int nib(std::uint64_t bits, int i) {
  return static_cast<int>((bits >> (4 * i)) & 0xF);
}

// ---------------------------------------------------------------------------
// Scalar tier: the reference semantics.  These mirror Perm::rank /
// Perm::unrank / inverse_of / relabel exactly, but work on raw packed
// bits so they carry no per-lane validation; parity is computed as
// inversion count mod 2, which equals the cycle parity Perm::parity()
// returns (n - #cycles ≡ #inversions mod 2).
// ---------------------------------------------------------------------------

void scalar_rank(const std::uint64_t* packed, std::size_t count, int n,
                 VertexId* out) {
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t b = packed[k];
    VertexId r = 0;
    for (int i = 0; i < n; ++i) {
      const int si = nib(b, i);
      int smaller = 0;
      for (int j = i + 1; j < n; ++j) smaller += nib(b, j) < si;
      r += static_cast<VertexId>(smaller) * factorial(n - 1 - i);
    }
    out[k] = r;
  }
}

// ---------------------------------------------------------------------------
// Unrank with compile-time divisors.  Let q_I = r / (N-1-I)!; Lehmer
// digit I of rank r is q_I mod (N-I) = q_I - (N-I) * q_{I-1}, because
// (N-1-(I-1))! = (N-I) * (N-1-I)!.  With N a template parameter every
// divisor is a constant, so each q_I is one multiply-shift, and no
// digit waits on another digit's remainder.  Ranks decode in 32-bit
// arithmetic while N! < 2^32 (N <= 12).  A digit picks the digit-th
// smallest unused symbol from a nibble list of the unused symbols.
// ---------------------------------------------------------------------------

template <int N>
using RankWord = std::conditional_t<(N <= 12), std::uint32_t, std::uint64_t>;

template <int N, int I>
inline RankWord<N> lehmer_quotient(RankWord<N> r) {
  return r / static_cast<RankWord<N>>(factorial(N - 1 - I));
}

template <int N, int I>
inline unsigned lehmer_digit(RankWord<N> r) {
  if constexpr (I == 0) {
    return static_cast<unsigned>(lehmer_quotient<N, 0>(r));
  } else {
    return static_cast<unsigned>(
        lehmer_quotient<N, I>(r) -
        static_cast<RankWord<N>>(N - I) * lehmer_quotient<N, I - 1>(r));
  }
}

using UnrankFn = void (*)(const VertexId*, std::size_t, std::uint64_t*);

/// The per-n decoders of one tier, indexed by n (entry 0 unused).
template <template <int> typename Decoder, int... M>
constexpr std::array<UnrankFn, kMaxN + 1> unrank_table(
    std::integer_sequence<int, M...>) {
  return {nullptr, &Decoder<M + 1>::run...};
}

// Scalar pick: the unused symbols sit in ascending order in the
// nibbles of `avail`; take nibble `digit` and close the gap.
template <int N, int I>
inline std::uint64_t scalar_pick(RankWord<N> r, std::uint64_t& avail) {
  const unsigned sh = 4 * lehmer_digit<N, I>(r);
  const std::uint64_t below = (std::uint64_t{1} << sh) - 1;
  const std::uint64_t sym = (avail >> sh) & 0xF;
  avail = (avail & below) | ((avail >> 4) & ~below);
  return sym << (4 * I);
}

template <int N>
struct ScalarUnrank {
  template <int... I>
  static void decode(const VertexId* ranks, std::size_t count,
                     std::uint64_t* out, std::integer_sequence<int, I...>) {
    for (std::size_t k = 0; k < count; ++k) {
      const auto r = static_cast<RankWord<N>>(ranks[k]);
      std::uint64_t avail = 0xFEDCBA9876543210ULL;
      out[k] = (scalar_pick<N, I>(r, avail) | ...);
    }
  }
  static void run(const VertexId* ranks, std::size_t count,
                  std::uint64_t* out) {
    decode(ranks, count, out, std::make_integer_sequence<int, N>{});
  }
};

constexpr auto kScalarUnrank =
    unrank_table<ScalarUnrank>(std::make_integer_sequence<int, kMaxN>{});

void scalar_unrank(const VertexId* ranks, std::size_t count, int n,
                   std::uint64_t* out) {
  kScalarUnrank[static_cast<std::size_t>(n)](ranks, count, out);
}

void scalar_parity(const std::uint64_t* packed, std::size_t count, int n,
                   std::uint8_t* out) {
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t b = packed[k];
    int inv = 0;
    for (int i = 0; i < n; ++i) {
      const int si = nib(b, i);
      for (int j = i + 1; j < n; ++j) inv += nib(b, j) < si;
    }
    out[k] = static_cast<std::uint8_t>(inv & 1);
  }
}

void scalar_relabel(std::uint64_t g_bits, const std::uint64_t* packed,
                    std::size_t count, int n, std::uint64_t* out) {
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t p = packed[k];
    std::uint64_t bits = 0;
    for (int i = 0; i < n; ++i)
      bits |= static_cast<std::uint64_t>(nib(g_bits, nib(p, i))) << (4 * i);
    out[k] = bits;
  }
}

void scalar_inverse(const std::uint64_t* packed, std::size_t count, int n,
                    std::uint64_t* out) {
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t p = packed[k];
    std::uint64_t bits = 0;
    for (int i = 0; i < n; ++i)
      bits |= static_cast<std::uint64_t>(i) << (4 * nib(p, i));
    out[k] = bits;
  }
}

constexpr Kernels kScalarKernels = {scalar_rank, scalar_unrank, scalar_parity,
                                    scalar_relabel, scalar_inverse};

#if STARRING_TIER_AVX2
// ---------------------------------------------------------------------------
// AVX2 tier (x86-64; requires avx2 + bmi2 at runtime).
//
// A packed permutation expands to 16 bytes (one per slot), which makes
// the primitives byte-shuffle problems:
//   relabel  — vpshufb with the expanded relabeling as lookup table,
//              two permutations per 256-bit vector;
//   rank     — per Lehmer digit, splat slot i, vpcmpgtb against the
//              remaining slots, vpmovmskb + popcount (two lanes per
//              iteration share the compare);
//   parity   — same digit loop, summed mod 2 instead of weighted;
//   inverse  — four permutations per vector as u64 lanes, scattering
//              slot indices with vpsllvq variable shifts;
//   unrank   — four ranks per vector on the compile-time divisors
//              above (n <= 12); tails and n >= 13 decode scalar.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,bmi2"))) inline __m128i expand16(
    std::uint64_t bits) {
  // u64 of 16 nibbles -> 16 bytes, byte i = nibble i.
  __m128i x = _mm_cvtsi64_si128(static_cast<long long>(bits));
  x = _mm_unpacklo_epi8(x, _mm_srli_epi64(x, 4));
  return _mm_and_si128(x, _mm_set1_epi8(0x0F));
}

__attribute__((target("avx2,bmi2"))) inline std::uint64_t pack16(__m128i bytes) {
  // 16 bytes (each 0..15) -> u64 of nibbles.  maddubs folds byte pairs
  // into lo + 16*hi, packus narrows the eight 16-bit lanes to bytes.
  const __m128i folded =
      _mm_maddubs_epi16(bytes, _mm_set1_epi16(0x1001));
  const __m128i narrowed = _mm_packus_epi16(folded, _mm_setzero_si128());
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(narrowed));
}

__attribute__((target("avx2,bmi2"))) void avx2_rank(const std::uint64_t* packed,
                                                    std::size_t count, int n,
                                                    VertexId* out) {
  const std::uint32_t valid = static_cast<std::uint32_t>((1u << n) - 1);
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    const __m256i bytes =
        _mm256_set_m128i(expand16(packed[k + 1]), expand16(packed[k]));
    std::uint64_t r0 = 0, r1 = 0;
    for (int i = 0; i < n - 1; ++i) {
      const __m256i splat =
          _mm256_shuffle_epi8(bytes, _mm256_set1_epi8(static_cast<char>(i)));
      const std::uint32_t m = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpgt_epi8(splat, bytes)));
      const std::uint32_t range = valid & ~((1u << (i + 1)) - 1);
      const std::uint64_t f = factorial(n - 1 - i);
      r0 += static_cast<std::uint64_t>(
                __builtin_popcount(m & 0xFFFFu & range)) * f;
      r1 += static_cast<std::uint64_t>(__builtin_popcount((m >> 16) & range)) *
            f;
    }
    out[k] = r0;
    out[k + 1] = r1;
  }
  for (; k < count; ++k) {
    const __m128i bytes = expand16(packed[k]);
    std::uint64_t r = 0;
    for (int i = 0; i < n - 1; ++i) {
      const __m128i splat =
          _mm_shuffle_epi8(bytes, _mm_set1_epi8(static_cast<char>(i)));
      const std::uint32_t m = static_cast<std::uint32_t>(
          _mm_movemask_epi8(_mm_cmpgt_epi8(splat, bytes)));
      const std::uint32_t range = valid & ~((1u << (i + 1)) - 1);
      r += static_cast<std::uint64_t>(__builtin_popcount(m & range)) *
           factorial(n - 1 - i);
    }
    out[k] = r;
  }
}

__attribute__((target("avx2,bmi2"))) void avx2_parity(
    const std::uint64_t* packed, std::size_t count, int n, std::uint8_t* out) {
  const std::uint32_t valid = static_cast<std::uint32_t>((1u << n) - 1);
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    const __m256i bytes =
        _mm256_set_m128i(expand16(packed[k + 1]), expand16(packed[k]));
    unsigned inv0 = 0, inv1 = 0;
    for (int i = 0; i < n - 1; ++i) {
      const __m256i splat =
          _mm256_shuffle_epi8(bytes, _mm256_set1_epi8(static_cast<char>(i)));
      const std::uint32_t m = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpgt_epi8(splat, bytes)));
      const std::uint32_t range = valid & ~((1u << (i + 1)) - 1);
      inv0 += static_cast<unsigned>(__builtin_popcount(m & 0xFFFFu & range));
      inv1 += static_cast<unsigned>(__builtin_popcount((m >> 16) & range));
    }
    out[k] = static_cast<std::uint8_t>(inv0 & 1);
    out[k + 1] = static_cast<std::uint8_t>(inv1 & 1);
  }
  if (k < count) {
    scalar_parity(packed + k, count - k, n, out + k);
  }
}

// Four lanes at a time while N <= 12: every rank is then below
// 12! < 2^29, so q_I is the exact multiply-shift (r * m) >> s with
// l = ceil(log2 d), s = 29 + l and m = ceil(2^s / d) < 2^31
// (Granlund-Montgomery), which vpmuludq computes per 64-bit lane.  The
// digit picks its symbol from the lane's nibble list of unused
// symbols, as the scalar tier does, with variable shifts.
struct Reciprocal {
  std::uint64_t m;
  int s;
};

constexpr Reciprocal reciprocal(std::uint64_t d) {
  int l = 0;
  while ((std::uint64_t{1} << l) < d) ++l;
  const int s = 29 + l;
  return {((std::uint64_t{1} << s) + d - 1) / d, s};
}

template <int N, int I>
__attribute__((target("avx2,bmi2"))) inline __m256i avx2_quotient(__m256i r) {
  constexpr Reciprocal q = reciprocal(factorial(N - 1 - I));
  static_assert(q.m < (std::uint64_t{1} << 32));
  return _mm256_srli_epi64(
      _mm256_mul_epu32(r, _mm256_set1_epi64x(static_cast<long long>(q.m))),
      q.s);
}

template <int N, int I>
__attribute__((target("avx2,bmi2"))) inline __m256i avx2_pick(
    __m256i r, __m256i& avail) {
  const __m256i nibble = _mm256_set1_epi64x(0xF);
  if constexpr (I == N - 1) {  // one symbol left
    return _mm256_slli_epi64(_mm256_and_si256(avail, nibble), 4 * I);
  } else {
    __m256i digit = avx2_quotient<N, I>(r);
    if constexpr (I > 0)
      digit = _mm256_sub_epi64(
          digit, _mm256_mul_epu32(avx2_quotient<N, I - 1>(r),
                                  _mm256_set1_epi64x(N - I)));
    const __m256i sh = _mm256_slli_epi64(digit, 2);
    const __m256i sym = _mm256_and_si256(_mm256_srlv_epi64(avail, sh), nibble);
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i below = _mm256_sub_epi64(_mm256_sllv_epi64(one, sh), one);
    avail = _mm256_or_si256(
        _mm256_and_si256(avail, below),
        _mm256_andnot_si256(below, _mm256_srli_epi64(avail, 4)));
    return _mm256_slli_epi64(sym, 4 * I);
  }
}

template <int N>
struct AVX2Unrank {
  template <int... I>
  __attribute__((target("avx2,bmi2"))) static void decode(
      const VertexId* ranks, std::size_t count, std::uint64_t* out,
      std::integer_sequence<int, I...>) {
    for (std::size_t k = 0; k < count; k += 4) {
      const __m256i r =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ranks + k));
      __m256i avail = _mm256_set1_epi64x(
          static_cast<long long>(0xFEDCBA9876543210ULL));
      __m256i bits = _mm256_setzero_si256();
      ((bits = _mm256_or_si256(bits, avx2_pick<N, I>(r, avail))), ...);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), bits);
    }
  }
  static void run(const VertexId* ranks, std::size_t count,
                  std::uint64_t* out) {
    std::size_t k = 0;
    if constexpr (N <= 12) {
      k = count - count % 4;
      decode(ranks, k, out, std::make_integer_sequence<int, N>{});
    }
    ScalarUnrank<N>::run(ranks + k, count - k, out + k);
  }
};

constexpr auto kAVX2Unrank =
    unrank_table<AVX2Unrank>(std::make_integer_sequence<int, kMaxN>{});

void avx2_unrank(const VertexId* ranks, std::size_t count, int n,
                 std::uint64_t* out) {
  kAVX2Unrank[static_cast<std::size_t>(n)](ranks, count, out);
}

__attribute__((target("avx2,bmi2"))) void avx2_relabel(
    std::uint64_t g_bits, const std::uint64_t* packed, std::size_t count,
    int n, std::uint64_t* out) {
  const __m128i table128 = expand16(g_bits);
  const __m256i table = _mm256_broadcastsi128_si256(table128);
  // Slots >= n expand to byte 0 and would look up g[0]; mask them back
  // to zero to preserve the packed invariant (high slots zero).
  const __m128i idx =
      _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m128i valid128 =
      _mm_cmpgt_epi8(_mm_set1_epi8(static_cast<char>(n)), idx);
  const __m256i valid = _mm256_broadcastsi128_si256(valid128);
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    const __m256i bytes =
        _mm256_set_m128i(expand16(packed[k + 1]), expand16(packed[k]));
    const __m256i mapped =
        _mm256_and_si256(_mm256_shuffle_epi8(table, bytes), valid);
    const __m256i folded =
        _mm256_maddubs_epi16(mapped, _mm256_set1_epi16(0x1001));
    const __m256i narrowed =
        _mm256_packus_epi16(folded, _mm256_setzero_si256());
    out[k] = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm256_castsi256_si128(narrowed)));
    out[k + 1] = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm256_extracti128_si256(narrowed, 1)));
  }
  for (; k < count; ++k) {
    const __m128i bytes = expand16(packed[k]);
    const __m128i mapped =
        _mm_and_si128(_mm_shuffle_epi8(table128, bytes), valid128);
    out[k] = pack16(mapped);
  }
}

__attribute__((target("avx2,bmi2"))) void avx2_inverse(
    const std::uint64_t* packed, std::size_t count, int n,
    std::uint64_t* out) {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(packed + k));
    __m256i acc = _mm256_setzero_si256();
    for (int i = 0; i < n; ++i) {
      // shift amount per lane = 4 * (slot-i symbol); vpsllvq scatters
      // the slot index to that nibble of the inverse.
      const __m256i sym = _mm256_and_si256(_mm256_srli_epi64(v, 4 * i),
                                           _mm256_set1_epi64x(0xF));
      const __m256i sh = _mm256_slli_epi64(sym, 2);
      acc = _mm256_or_si256(acc,
                            _mm256_sllv_epi64(_mm256_set1_epi64x(i), sh));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), acc);
  }
  if (k < count) {
    scalar_inverse(packed + k, count - k, n, out + k);
  }
}

constexpr Kernels kAVX2Kernels = {avx2_rank, avx2_unrank, avx2_parity,
                                  avx2_relabel, avx2_inverse};
#endif  // STARRING_TIER_AVX2

#if STARRING_TIER_NEON
// ---------------------------------------------------------------------------
// NEON tier (aarch64; baseline, no runtime feature check needed).
// Same byte-level structure as AVX2: vqtbl1q_u8 for the relabel lookup,
// per-digit compare + horizontal add for rank/parity, per-lane variable
// shifts (vshlq_u64) for inverse.  Unrank keeps the scalar decode
// (compile-time divisors, nibble-list symbol pick).
// ---------------------------------------------------------------------------

inline uint8x16_t neon_expand(std::uint64_t bits) {
  const uint8x8_t lo = vcreate_u8(bits);
  const uint8x8_t hi = vcreate_u8(bits >> 4);
  const uint8x16_t inter =
      vzip1q_u8(vcombine_u8(lo, vdup_n_u8(0)), vcombine_u8(hi, vdup_n_u8(0)));
  return vandq_u8(inter, vdupq_n_u8(0x0F));
}

inline std::uint64_t neon_pack(uint8x16_t bytes) {
  const uint16x8_t pairs = vreinterpretq_u16_u8(bytes);
  const uint16x8_t lo = vandq_u16(pairs, vdupq_n_u16(0x00FF));
  const uint16x8_t hi = vshrq_n_u16(pairs, 8);
  const uint16x8_t comb = vorrq_u16(lo, vshlq_n_u16(hi, 4));
  return vget_lane_u64(vreinterpret_u64_u8(vmovn_u16(comb)), 0);
}

inline uint8x16_t neon_slot_index() {
  static const std::uint8_t kIdx[16] = {0, 1, 2,  3,  4,  5,  6,  7,
                                        8, 9, 10, 11, 12, 13, 14, 15};
  return vld1q_u8(kIdx);
}

void neon_rank(const std::uint64_t* packed, std::size_t count, int n,
               VertexId* out) {
  const uint8x16_t idx = neon_slot_index();
  const uint8x16_t in_range = vcltq_u8(idx, vdupq_n_u8(static_cast<std::uint8_t>(n)));
  for (std::size_t k = 0; k < count; ++k) {
    const uint8x16_t bytes = neon_expand(packed[k]);
    std::uint64_t r = 0;
    for (int i = 0; i < n - 1; ++i) {
      const uint8x16_t splat =
          vqtbl1q_u8(bytes, vdupq_n_u8(static_cast<std::uint8_t>(i)));
      const uint8x16_t lt = vcltq_u8(bytes, splat);
      const uint8x16_t after =
          vcgtq_u8(idx, vdupq_n_u8(static_cast<std::uint8_t>(i)));
      const uint8x16_t hits = vandq_u8(vandq_u8(lt, after), in_range);
      const unsigned digit = vaddvq_u8(vshrq_n_u8(hits, 7));
      r += static_cast<std::uint64_t>(digit) * factorial(n - 1 - i);
    }
    out[k] = r;
  }
}

void neon_parity(const std::uint64_t* packed, std::size_t count, int n,
                 std::uint8_t* out) {
  const uint8x16_t idx = neon_slot_index();
  const uint8x16_t in_range = vcltq_u8(idx, vdupq_n_u8(static_cast<std::uint8_t>(n)));
  for (std::size_t k = 0; k < count; ++k) {
    const uint8x16_t bytes = neon_expand(packed[k]);
    unsigned inv = 0;
    for (int i = 0; i < n - 1; ++i) {
      const uint8x16_t splat =
          vqtbl1q_u8(bytes, vdupq_n_u8(static_cast<std::uint8_t>(i)));
      const uint8x16_t lt = vcltq_u8(bytes, splat);
      const uint8x16_t after =
          vcgtq_u8(idx, vdupq_n_u8(static_cast<std::uint8_t>(i)));
      const uint8x16_t hits = vandq_u8(vandq_u8(lt, after), in_range);
      inv += vaddvq_u8(vshrq_n_u8(hits, 7));
    }
    out[k] = static_cast<std::uint8_t>(inv & 1);
  }
}

void neon_relabel(std::uint64_t g_bits, const std::uint64_t* packed,
                  std::size_t count, int n, std::uint64_t* out) {
  const uint8x16_t table = neon_expand(g_bits);
  const uint8x16_t idx = neon_slot_index();
  const uint8x16_t valid =
      vcltq_u8(idx, vdupq_n_u8(static_cast<std::uint8_t>(n)));
  for (std::size_t k = 0; k < count; ++k) {
    const uint8x16_t bytes = neon_expand(packed[k]);
    const uint8x16_t mapped = vandq_u8(vqtbl1q_u8(table, bytes), valid);
    out[k] = neon_pack(mapped);
  }
}

void neon_inverse(const std::uint64_t* packed, std::size_t count, int n,
                  std::uint64_t* out) {
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    const uint64x2_t v = vld1q_u64(packed + k);
    uint64x2_t acc = vdupq_n_u64(0);
    for (int i = 0; i < n; ++i) {
      const uint64x2_t sym = vandq_u64(
          vshlq_u64(v, vdupq_n_s64(-4 * static_cast<std::int64_t>(i))),
          vdupq_n_u64(0xF));
      const int64x2_t sh =
          vreinterpretq_s64_u64(vshlq_n_u64(sym, 2));
      acc = vorrq_u64(acc,
                      vshlq_u64(vdupq_n_u64(static_cast<std::uint64_t>(i)), sh));
    }
    vst1q_u64(out + k, acc);
  }
  if (k < count) {
    scalar_inverse(packed + k, count - k, n, out + k);
  }
}

constexpr Kernels kNEONKernels = {neon_rank, scalar_unrank, neon_parity,
                                  neon_relabel, neon_inverse};
#endif  // STARRING_TIER_NEON

Tier best_supported() {
#if STARRING_TIER_AVX2
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2"))
    return Tier::kAVX2;
#elif STARRING_TIER_NEON
  return Tier::kNEON;
#endif
  return Tier::kScalar;
}

Tier resolve_tier() {
  const char* env = std::getenv("STARRING_SIMD");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
        std::strcmp(env, "0") == 0)
      return Tier::kScalar;
    if (std::strcmp(env, "avx2") == 0)
      return best_supported() == Tier::kAVX2 ? Tier::kAVX2 : Tier::kScalar;
    if (std::strcmp(env, "neon") == 0)
      return best_supported() == Tier::kNEON ? Tier::kNEON : Tier::kScalar;
    // Unrecognized value (including "auto"): fall through to detection.
  }
  return best_supported();
}

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kAVX2: return "avx2";
    case Tier::kNEON: return "neon";
    case Tier::kScalar: break;
  }
  return "scalar";
}

Tier active_tier() {
  static const Tier t = resolve_tier();
  return t;
}

const Kernels& kernels(Tier t) {
#if STARRING_TIER_AVX2
  if (t == Tier::kAVX2 && best_supported() == Tier::kAVX2) return kAVX2Kernels;
#endif
#if STARRING_TIER_NEON
  if (t == Tier::kNEON) return kNEONKernels;
#endif
  (void)t;
  return kScalarKernels;
}

const Kernels& active() {
  static const Kernels& k = kernels(active_tier());
  return k;
}

#ifndef NDEBUG
void assert_valid_batch(const std::uint64_t* packed, std::size_t count,
                        int n) {
  assert(n >= 1 && n <= kMaxN);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t b = packed[k];
    std::uint16_t seen = 0;
    for (int i = 0; i < n; ++i) {
      const int s = nib(b, i);
      assert(s < n && !((seen >> s) & 1));
      seen = static_cast<std::uint16_t>(seen | (1u << s));
    }
    assert((n == 16 ? 0 : b >> (4 * n)) == 0);
  }
}
#endif

}  // namespace starring::simd
