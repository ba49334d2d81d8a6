#ifndef MVG_UTIL_SIMD_H_
#define MVG_UTIL_SIMD_H_

// Portable fixed-width vector abstraction for the hot kernels (histogram
// accumulation, VG visibility scans, GBT row updates, graph-stat folds).
//
// Backend is selected once, at compile time:
//
//   MVG_SIMD_OFF           -> scalar   (kill switch)
//   __AVX2__               -> avx2     (256-bit f64 lanes)
//   __SSE2__ / x86-64      -> sse2     (2 x 128-bit halves)
//   __aarch64__ + NEON     -> neon     (2 x 128-bit halves)
//   anything else          -> scalar
//
// Determinism contract (the repo-wide bit-identity rule): every lane
// operation is the IEEE-754 double/float operation of its scalar spelling;
// Min/Max follow std::min/std::max semantics exactly (result is the FIRST
// argument when the second is NaN, and the first argument on ties — so
// -0/+0 ties resolve identically); MulAdd is mul-then-add with TWO
// roundings on every backend (a true fused op is deliberately not exposed:
// single-rounding fma would change bits vs the scalar path); horizontal
// reductions are defined as lane-order folds. Any kernel written against
// this header therefore produces bit-identical results on every backend,
// including the MVG_SIMD_OFF scalar build — which is what the cross-build
// byte-diff in CI pins.
//
// Types: F64x4 (the workhorse), I64x2 (fixed-point grad/hess pair
// cells; integer adds are exact), I32x4
// (bin-index math, gather-free u8 widening), U8x16 (bin-span min/max
// sweeps).
// Loads are unaligned-safe; *Aligned variants assert/require cache-line
// alignment (see util/aligned_buffer.h) and are split-free by layout.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(MVG_SIMD_OFF)
#if defined(__AVX2__)
#define MVG_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define MVG_SIMD_BACKEND_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define MVG_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#endif
#endif  // !MVG_SIMD_OFF

#if !defined(MVG_SIMD_BACKEND_AVX2) && !defined(MVG_SIMD_BACKEND_SSE2) && \
    !defined(MVG_SIMD_BACKEND_NEON)
#define MVG_SIMD_BACKEND_SCALAR 1
#endif

// Marker for hand-scheduled kernels: tells GCC's autovectorizer to leave
// the function alone. The kernels written on this header pick their own
// vector shapes; letting the compiler re-vectorize their scalar tails and
// epilogue loops (with 512-bit vectors under -march=native on AVX-512
// hosts) was measured to cost ~40% on the histogram scan — the zmm
// epilogues trigger license-based downclocking that drags the whole
// function. No-op on compilers without the attribute.
#if defined(__GNUC__) && !defined(__clang__)
#define MVG_NO_AUTOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define MVG_NO_AUTOVEC
#endif

namespace mvg {
namespace simd {

#if defined(MVG_SIMD_BACKEND_AVX2)
inline constexpr const char* kBackendName = "avx2";
#elif defined(MVG_SIMD_BACKEND_SSE2)
inline constexpr const char* kBackendName = "sse2";
#elif defined(MVG_SIMD_BACKEND_NEON)
inline constexpr const char* kBackendName = "neon";
#else
inline constexpr const char* kBackendName = "scalar";
#endif

/// True when a vector backend is compiled in (false under MVG_SIMD_OFF or
/// on unknown architectures).
inline constexpr bool kVectorized =
#if defined(MVG_SIMD_BACKEND_SCALAR)
    false;
#else
    true;
#endif

/// Index of the lowest set bit of a (non-zero) compare mask — the first
/// lane, in memory order, that satisfied the predicate.
inline int FirstLane(int mask) {
  assert(mask != 0);
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctz(static_cast<unsigned>(mask));
#else
  int i = 0;
  while ((mask & 1) == 0) {
    mask >>= 1;
    ++i;
  }
  return i;
#endif
}

/// Number of set bits in a compare mask (lanes satisfying the predicate).
inline int CountLanes(int mask) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcount(static_cast<unsigned>(mask));
#else
  int c = 0;
  while (mask != 0) {
    c += mask & 1;
    mask >>= 1;
  }
  return c;
#endif
}

// ===========================================================================
// x86 backends (SSE2 baseline; AVX2 widens F64x4 to one register).
// The 128-bit types are shared between the two.
// ===========================================================================
#if defined(MVG_SIMD_BACKEND_AVX2) || defined(MVG_SIMD_BACKEND_SSE2)

// ---- I64x2 ----------------------------------------------------------------
struct I64x2 {
  __m128i v;
  static I64x2 Load(const int64_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static I64x2 Zero() { return {_mm_setzero_si128()}; }
  void Store(int64_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
};
inline I64x2 operator+(I64x2 a, I64x2 b) { return {_mm_add_epi64(a.v, b.v)}; }
inline I64x2 operator-(I64x2 a, I64x2 b) { return {_mm_sub_epi64(a.v, b.v)}; }

// ---- I32x4 ----------------------------------------------------------------
struct I32x4 {
  __m128i v;
  static I32x4 Load(const int32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static I32x4 Load(const uint32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static I32x4 Broadcast(int32_t x) { return {_mm_set1_epi32(x)}; }
  static I32x4 Zero() { return {_mm_setzero_si128()}; }
  /// Gather-free u8 widening: one 4-byte scalar load, zero-extended to
  /// four i32 lanes in-register (no per-lane gather).
  static I32x4 WidenU8x4(const uint8_t* p) {
    int32_t packed;
    std::memcpy(&packed, p, 4);
    const __m128i b = _mm_cvtsi32_si128(packed);
    const __m128i zero = _mm_setzero_si128();
    return {_mm_unpacklo_epi16(_mm_unpacklo_epi8(b, zero), zero)};
  }
  void Store(int32_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  void Store(uint32_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  int32_t Lane(int i) const {
    alignas(16) int32_t t[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(t), v);
    return t[i];
  }
};
inline I32x4 operator+(I32x4 a, I32x4 b) { return {_mm_add_epi32(a.v, b.v)}; }
inline I32x4 operator-(I32x4 a, I32x4 b) { return {_mm_sub_epi32(a.v, b.v)}; }
inline I32x4 operator*(I32x4 a, I32x4 b) {
#if defined(__SSE4_1__) || defined(MVG_SIMD_BACKEND_AVX2)
  return {_mm_mullo_epi32(a.v, b.v)};
#else
  // SSE2 lacks 32-bit mullo: multiply even/odd lanes as 32x32->64 and
  // recombine the low halves.
  const __m128i even = _mm_mul_epu32(a.v, b.v);
  const __m128i odd =
      _mm_mul_epu32(_mm_srli_si128(a.v, 4), _mm_srli_si128(b.v, 4));
  return {_mm_unpacklo_epi32(_mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
                             _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)))};
#endif
}
/// Lanes rotated down one slot: {l1, l2, l3, l0}. Four rotations align
/// every lane of one vector with every lane of another (the all-pairs
/// compare of the sorted-intersection kernel).
inline I32x4 RotateLanes1(I32x4 a) {
  return {_mm_shuffle_epi32(a.v, _MM_SHUFFLE(0, 3, 2, 1))};
}
/// 4-bit mask of lanewise 32-bit equality (bit i set iff lane i equal).
inline int EqMask(I32x4 a, I32x4 b) {
  return _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(a.v, b.v)));
}

// ---- U8x16 ----------------------------------------------------------------
struct U8x16 {
  __m128i v;
  static U8x16 Load(const uint8_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static U8x16 Broadcast(uint8_t x) {
    return {_mm_set1_epi8(static_cast<char>(x))};
  }
};
inline U8x16 MinU8(U8x16 a, U8x16 b) { return {_mm_min_epu8(a.v, b.v)}; }
inline U8x16 MaxU8(U8x16 a, U8x16 b) { return {_mm_max_epu8(a.v, b.v)}; }
inline uint8_t ReduceMinU8(U8x16 x) {
  alignas(16) uint8_t t[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(t), x.v);
  uint8_t m = t[0];
  for (int i = 1; i < 16; ++i) m = std::min(m, t[i]);
  return m;
}
inline uint8_t ReduceMaxU8(U8x16 x) {
  alignas(16) uint8_t t[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(t), x.v);
  uint8_t m = t[0];
  for (int i = 1; i < 16; ++i) m = std::max(m, t[i]);
  return m;
}

#if defined(MVG_SIMD_BACKEND_AVX2)

// ---- F64x4 (AVX2) ---------------------------------------------------------
struct F64x4 {
  __m256d v;
  static F64x4 Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static F64x4 LoadAligned(const double* p) { return {_mm256_load_pd(p)}; }
  static F64x4 Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static F64x4 Set(double l0, double l1, double l2, double l3) {
    return {_mm256_setr_pd(l0, l1, l2, l3)};
  }
  static F64x4 Zero() { return {_mm256_setzero_pd()}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
  void StoreAligned(double* p) const { _mm256_store_pd(p, v); }
  double Lane(int i) const {
    alignas(32) double t[4];
    _mm256_store_pd(t, v);
    return t[i];
  }
};
inline F64x4 operator+(F64x4 a, F64x4 b) { return {_mm256_add_pd(a.v, b.v)}; }
inline F64x4 operator-(F64x4 a, F64x4 b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline F64x4 operator*(F64x4 a, F64x4 b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline F64x4 operator/(F64x4 a, F64x4 b) { return {_mm256_div_pd(a.v, b.v)}; }
/// a*b + c with two roundings (no fused contraction; see header comment).
inline F64x4 MulAdd(F64x4 a, F64x4 b, F64x4 c) {
  return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
}
/// std::min/std::max semantics: native min/max_pd return the SECOND
/// operand on NaN and on ties, so swapping the operands yields exactly
/// (b<a)?b:a and (a<b)?b:a — std::min(a,b) / std::max(a,b), all cases
/// (NaN in either slot, -0/+0 ties) included.
inline F64x4 Min(F64x4 a, F64x4 b) { return {_mm256_min_pd(b.v, a.v)}; }
inline F64x4 Max(F64x4 a, F64x4 b) { return {_mm256_max_pd(b.v, a.v)}; }
/// Lanes reversed: {l3, l2, l1, l0}.
inline F64x4 Reverse(F64x4 x) {
  return {_mm256_permute4x64_pd(x.v, _MM_SHUFFLE(0, 1, 2, 3))};
}
/// Splits the 8 doubles {a | b} into even-index and odd-index lanes:
/// even = {a0, a2, b0, b2}-positions of the concatenated stream, i.e. for
/// a = x[0..3], b = x[4..7]: even = {x0, x2, x4, x6}, odd = {x1, x3, x5,
/// x7}. Pure lane permutation — no arithmetic, so trivially bit-exact.
inline void DeinterleaveEvenOdd(F64x4 a, F64x4 b, F64x4* even, F64x4* odd) {
  // unpacklo/hi operate per 128-bit half: lo = {x0,x4 | x2,x6}; a cross-
  // lane permute restores stream order.
  const __m256d lo = _mm256_unpacklo_pd(a.v, b.v);
  const __m256d hi = _mm256_unpackhi_pd(a.v, b.v);
  even->v = _mm256_permute4x64_pd(lo, _MM_SHUFFLE(3, 1, 2, 0));
  odd->v = _mm256_permute4x64_pd(hi, _MM_SHUFFLE(3, 1, 2, 0));
}

struct M64x4 {
  __m256d m;
};
inline M64x4 CmpLT(F64x4 a, F64x4 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline M64x4 CmpGT(F64x4 a, F64x4 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}
inline M64x4 CmpGE(F64x4 a, F64x4 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
inline M64x4 CmpEQ(F64x4 a, F64x4 b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}
inline F64x4 Blend(M64x4 m, F64x4 t, F64x4 f) {
  return {_mm256_blendv_pd(f.v, t.v, m.m)};
}
inline int MoveMask(M64x4 m) { return _mm256_movemask_pd(m.m); }

#else  // SSE2: F64x4 as two 128-bit halves.

struct F64x4 {
  __m128d lo, hi;
  static F64x4 Load(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static F64x4 LoadAligned(const double* p) {
    return {_mm_load_pd(p), _mm_load_pd(p + 2)};
  }
  static F64x4 Broadcast(double x) { return {_mm_set1_pd(x), _mm_set1_pd(x)}; }
  static F64x4 Set(double l0, double l1, double l2, double l3) {
    return {_mm_setr_pd(l0, l1), _mm_setr_pd(l2, l3)};
  }
  static F64x4 Zero() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
  void Store(double* p) const {
    _mm_storeu_pd(p, lo);
    _mm_storeu_pd(p + 2, hi);
  }
  void StoreAligned(double* p) const {
    _mm_store_pd(p, lo);
    _mm_store_pd(p + 2, hi);
  }
  double Lane(int i) const {
    alignas(16) double t[4];
    _mm_store_pd(t, lo);
    _mm_store_pd(t + 2, hi);
    return t[i];
  }
};
inline F64x4 operator+(F64x4 a, F64x4 b) {
  return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
}
inline F64x4 operator-(F64x4 a, F64x4 b) {
  return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
}
inline F64x4 operator*(F64x4 a, F64x4 b) {
  return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
}
inline F64x4 operator/(F64x4 a, F64x4 b) {
  return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
}
inline F64x4 MulAdd(F64x4 a, F64x4 b, F64x4 c) {
  return {_mm_add_pd(_mm_mul_pd(a.lo, b.lo), c.lo),
          _mm_add_pd(_mm_mul_pd(a.hi, b.hi), c.hi)};
}
/// Operand swap for std::min/std::max semantics — see the AVX2 comment.
inline F64x4 Min(F64x4 a, F64x4 b) {
  return {_mm_min_pd(b.lo, a.lo), _mm_min_pd(b.hi, a.hi)};
}
inline F64x4 Max(F64x4 a, F64x4 b) {
  return {_mm_max_pd(b.lo, a.lo), _mm_max_pd(b.hi, a.hi)};
}
inline F64x4 Reverse(F64x4 x) {
  return {_mm_shuffle_pd(x.hi, x.hi, 1), _mm_shuffle_pd(x.lo, x.lo, 1)};
}
/// Even/odd split of the 8-double stream {a | b} — see the AVX2 comment.
inline void DeinterleaveEvenOdd(F64x4 a, F64x4 b, F64x4* even, F64x4* odd) {
  even->lo = _mm_shuffle_pd(a.lo, a.hi, 0);
  even->hi = _mm_shuffle_pd(b.lo, b.hi, 0);
  odd->lo = _mm_shuffle_pd(a.lo, a.hi, 3);
  odd->hi = _mm_shuffle_pd(b.lo, b.hi, 3);
}

struct M64x4 {
  __m128d lo, hi;
};
inline M64x4 CmpLT(F64x4 a, F64x4 b) {
  return {_mm_cmplt_pd(a.lo, b.lo), _mm_cmplt_pd(a.hi, b.hi)};
}
inline M64x4 CmpGT(F64x4 a, F64x4 b) {
  return {_mm_cmpgt_pd(a.lo, b.lo), _mm_cmpgt_pd(a.hi, b.hi)};
}
inline M64x4 CmpGE(F64x4 a, F64x4 b) {
  return {_mm_cmpge_pd(a.lo, b.lo), _mm_cmpge_pd(a.hi, b.hi)};
}
inline M64x4 CmpEQ(F64x4 a, F64x4 b) {
  return {_mm_cmpeq_pd(a.lo, b.lo), _mm_cmpeq_pd(a.hi, b.hi)};
}
inline F64x4 Blend(M64x4 m, F64x4 t, F64x4 f) {
  return {_mm_or_pd(_mm_and_pd(m.lo, t.lo), _mm_andnot_pd(m.lo, f.lo)),
          _mm_or_pd(_mm_and_pd(m.hi, t.hi), _mm_andnot_pd(m.hi, f.hi))};
}
inline int MoveMask(M64x4 m) {
  return _mm_movemask_pd(m.lo) | (_mm_movemask_pd(m.hi) << 2);
}

#endif  // AVX2 / SSE2 wide types

#elif defined(MVG_SIMD_BACKEND_NEON)
// ===========================================================================
// NEON backend (aarch64): 128-bit registers, wide types as two halves.
// ===========================================================================

struct I64x2 {
  int64x2_t v;
  static I64x2 Load(const int64_t* p) { return {vld1q_s64(p)}; }
  static I64x2 Zero() { return {vdupq_n_s64(0)}; }
  void Store(int64_t* p) const { vst1q_s64(p, v); }
};
inline I64x2 operator+(I64x2 a, I64x2 b) { return {vaddq_s64(a.v, b.v)}; }
inline I64x2 operator-(I64x2 a, I64x2 b) { return {vsubq_s64(a.v, b.v)}; }

struct I32x4 {
  int32x4_t v;
  static I32x4 Load(const int32_t* p) { return {vld1q_s32(p)}; }
  static I32x4 Load(const uint32_t* p) {
    return {vreinterpretq_s32_u32(vld1q_u32(p))};
  }
  static I32x4 Broadcast(int32_t x) { return {vdupq_n_s32(x)}; }
  static I32x4 Zero() { return {vdupq_n_s32(0)}; }
  static I32x4 WidenU8x4(const uint8_t* p) {
    uint32_t packed;
    std::memcpy(&packed, p, 4);
    const uint8x8_t b = vreinterpret_u8_u32(vdup_n_u32(packed));
    return {vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(vmovl_u8(b))))};
  }
  void Store(int32_t* p) const { vst1q_s32(p, v); }
  void Store(uint32_t* p) const { vst1q_u32(p, vreinterpretq_u32_s32(v)); }
  int32_t Lane(int i) const {
    int32_t t[4];
    vst1q_s32(t, v);
    return t[i];
  }
};
inline I32x4 operator+(I32x4 a, I32x4 b) { return {vaddq_s32(a.v, b.v)}; }
inline I32x4 operator-(I32x4 a, I32x4 b) { return {vsubq_s32(a.v, b.v)}; }
inline I32x4 operator*(I32x4 a, I32x4 b) { return {vmulq_s32(a.v, b.v)}; }
inline I32x4 RotateLanes1(I32x4 a) { return {vextq_s32(a.v, a.v, 1)}; }
inline int EqMask(I32x4 a, I32x4 b) {
  const uint32x4_t eq = vceqq_s32(a.v, b.v);
  return (vgetq_lane_u32(eq, 0) & 1) | ((vgetq_lane_u32(eq, 1) & 1) << 1) |
         ((vgetq_lane_u32(eq, 2) & 1) << 2) | ((vgetq_lane_u32(eq, 3) & 1) << 3);
}

struct U8x16 {
  uint8x16_t v;
  static U8x16 Load(const uint8_t* p) { return {vld1q_u8(p)}; }
  static U8x16 Broadcast(uint8_t x) { return {vdupq_n_u8(x)}; }
};
inline U8x16 MinU8(U8x16 a, U8x16 b) { return {vminq_u8(a.v, b.v)}; }
inline U8x16 MaxU8(U8x16 a, U8x16 b) { return {vmaxq_u8(a.v, b.v)}; }
inline uint8_t ReduceMinU8(U8x16 x) { return vminvq_u8(x.v); }
inline uint8_t ReduceMaxU8(U8x16 x) { return vmaxvq_u8(x.v); }

struct F64x4 {
  float64x2_t lo, hi;
  static F64x4 Load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
  static F64x4 LoadAligned(const double* p) { return Load(p); }
  static F64x4 Broadcast(double x) {
    return {vdupq_n_f64(x), vdupq_n_f64(x)};
  }
  static F64x4 Set(double l0, double l1, double l2, double l3) {
    const double a[2] = {l0, l1}, b[2] = {l2, l3};
    return {vld1q_f64(a), vld1q_f64(b)};
  }
  static F64x4 Zero() { return Broadcast(0.0); }
  void Store(double* p) const {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }
  void StoreAligned(double* p) const { Store(p); }
  double Lane(int i) const {
    double t[4];
    Store(t);
    return t[i];
  }
};
inline F64x4 operator+(F64x4 a, F64x4 b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline F64x4 operator-(F64x4 a, F64x4 b) {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline F64x4 operator*(F64x4 a, F64x4 b) {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
inline F64x4 operator/(F64x4 a, F64x4 b) {
  return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
}
inline F64x4 MulAdd(F64x4 a, F64x4 b, F64x4 c) {
  // Two roundings by contract: explicit mul then add (not vfmaq).
  return {vaddq_f64(vmulq_f64(a.lo, b.lo), c.lo),
          vaddq_f64(vmulq_f64(a.hi, b.hi), c.hi)};
}
inline F64x4 Min(F64x4 a, F64x4 b) {
  return {vbslq_f64(vcltq_f64(b.lo, a.lo), b.lo, a.lo),
          vbslq_f64(vcltq_f64(b.hi, a.hi), b.hi, a.hi)};
}
inline F64x4 Max(F64x4 a, F64x4 b) {
  return {vbslq_f64(vcltq_f64(a.lo, b.lo), b.lo, a.lo),
          vbslq_f64(vcltq_f64(a.hi, b.hi), b.hi, a.hi)};
}
inline F64x4 Reverse(F64x4 x) {
  return {vextq_f64(x.hi, x.hi, 1), vextq_f64(x.lo, x.lo, 1)};
}
/// Even/odd split of the 8-double stream {a | b} — see the x86 comment.
inline void DeinterleaveEvenOdd(F64x4 a, F64x4 b, F64x4* even, F64x4* odd) {
  even->lo = vuzp1q_f64(a.lo, a.hi);
  even->hi = vuzp1q_f64(b.lo, b.hi);
  odd->lo = vuzp2q_f64(a.lo, a.hi);
  odd->hi = vuzp2q_f64(b.lo, b.hi);
}

struct M64x4 {
  uint64x2_t lo, hi;
};
inline M64x4 CmpLT(F64x4 a, F64x4 b) {
  return {vcltq_f64(a.lo, b.lo), vcltq_f64(a.hi, b.hi)};
}
inline M64x4 CmpGT(F64x4 a, F64x4 b) {
  return {vcgtq_f64(a.lo, b.lo), vcgtq_f64(a.hi, b.hi)};
}
inline M64x4 CmpGE(F64x4 a, F64x4 b) {
  return {vcgeq_f64(a.lo, b.lo), vcgeq_f64(a.hi, b.hi)};
}
inline M64x4 CmpEQ(F64x4 a, F64x4 b) {
  return {vceqq_f64(a.lo, b.lo), vceqq_f64(a.hi, b.hi)};
}
inline F64x4 Blend(M64x4 m, F64x4 t, F64x4 f) {
  return {vbslq_f64(m.lo, t.lo, f.lo), vbslq_f64(m.hi, t.hi, f.hi)};
}
inline int MoveMask(M64x4 m) {
  return static_cast<int>((vgetq_lane_u64(m.lo, 0) & 1u) |
                          ((vgetq_lane_u64(m.lo, 1) & 1u) << 1) |
                          ((vgetq_lane_u64(m.hi, 0) & 1u) << 2) |
                          ((vgetq_lane_u64(m.hi, 1) & 1u) << 3));
}

#else
// ===========================================================================
// Scalar backend — the parity reference. Everything is the literal scalar
// spelling of the operation, which the vector backends must match bit for
// bit (this is what MVG_SIMD_OFF compiles, and what the cross-build
// byte-diff in CI pins).
// ===========================================================================

struct I64x2 {
  int64_t v[2];
  static I64x2 Load(const int64_t* p) { return {{p[0], p[1]}}; }
  static I64x2 Zero() { return {{0, 0}}; }
  void Store(int64_t* p) const {
    p[0] = v[0];
    p[1] = v[1];
  }
};
inline I64x2 operator+(I64x2 a, I64x2 b) {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}};
}
inline I64x2 operator-(I64x2 a, I64x2 b) {
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1]}};
}

struct I32x4 {
  int32_t v[4];
  static I32x4 Load(const int32_t* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static I32x4 Load(const uint32_t* p) {
    return {{static_cast<int32_t>(p[0]), static_cast<int32_t>(p[1]),
             static_cast<int32_t>(p[2]), static_cast<int32_t>(p[3])}};
  }
  static I32x4 Broadcast(int32_t x) { return {{x, x, x, x}}; }
  static I32x4 Zero() { return {{0, 0, 0, 0}}; }
  static I32x4 WidenU8x4(const uint8_t* p) {
    return {{p[0], p[1], p[2], p[3]}};
  }
  void Store(int32_t* p) const {
    for (int i = 0; i < 4; ++i) p[i] = v[i];
  }
  void Store(uint32_t* p) const {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<uint32_t>(v[i]);
  }
  int32_t Lane(int i) const { return v[i]; }
};
inline I32x4 operator+(I32x4 a, I32x4 b) {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
           a.v[3] + b.v[3]}};
}
inline I32x4 operator-(I32x4 a, I32x4 b) {
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
           a.v[3] - b.v[3]}};
}
/// Low 32 bits of each product, as the vector backends' mullo gives:
/// the multiply runs in uint32_t, where wrapping is defined.
inline I32x4 operator*(I32x4 a, I32x4 b) {
  I32x4 r{};
  for (int i = 0; i < 4; ++i) {
    r.v[i] = static_cast<int32_t>(static_cast<uint32_t>(a.v[i]) *
                                  static_cast<uint32_t>(b.v[i]));
  }
  return r;
}
inline I32x4 RotateLanes1(I32x4 a) {
  return {{a.v[1], a.v[2], a.v[3], a.v[0]}};
}
inline int EqMask(I32x4 a, I32x4 b) {
  int m = 0;
  for (int i = 0; i < 4; ++i) {
    if (a.v[i] == b.v[i]) m |= 1 << i;
  }
  return m;
}

struct U8x16 {
  uint8_t v[16];
  static U8x16 Load(const uint8_t* p) {
    U8x16 r;
    std::memcpy(r.v, p, 16);
    return r;
  }
  static U8x16 Broadcast(uint8_t x) {
    U8x16 r;
    std::memset(r.v, x, 16);
    return r;
  }
};
inline U8x16 MinU8(U8x16 a, U8x16 b) {
  U8x16 r;
  for (int i = 0; i < 16; ++i) r.v[i] = std::min(a.v[i], b.v[i]);
  return r;
}
inline U8x16 MaxU8(U8x16 a, U8x16 b) {
  U8x16 r;
  for (int i = 0; i < 16; ++i) r.v[i] = std::max(a.v[i], b.v[i]);
  return r;
}
inline uint8_t ReduceMinU8(U8x16 x) {
  uint8_t m = x.v[0];
  for (int i = 1; i < 16; ++i) m = std::min(m, x.v[i]);
  return m;
}
inline uint8_t ReduceMaxU8(U8x16 x) {
  uint8_t m = x.v[0];
  for (int i = 1; i < 16; ++i) m = std::max(m, x.v[i]);
  return m;
}

struct F64x4 {
  double v[4];
  static F64x4 Load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static F64x4 LoadAligned(const double* p) { return Load(p); }
  static F64x4 Broadcast(double x) { return {{x, x, x, x}}; }
  static F64x4 Set(double l0, double l1, double l2, double l3) {
    return {{l0, l1, l2, l3}};
  }
  static F64x4 Zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
  void Store(double* p) const {
    for (int i = 0; i < 4; ++i) p[i] = v[i];
  }
  void StoreAligned(double* p) const { Store(p); }
  double Lane(int i) const { return v[i]; }
};
inline F64x4 operator+(F64x4 a, F64x4 b) {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
           a.v[3] + b.v[3]}};
}
inline F64x4 operator-(F64x4 a, F64x4 b) {
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
           a.v[3] - b.v[3]}};
}
inline F64x4 operator*(F64x4 a, F64x4 b) {
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
           a.v[3] * b.v[3]}};
}
inline F64x4 operator/(F64x4 a, F64x4 b) {
  return {{a.v[0] / b.v[0], a.v[1] / b.v[1], a.v[2] / b.v[2],
           a.v[3] / b.v[3]}};
}
inline F64x4 MulAdd(F64x4 a, F64x4 b, F64x4 c) {
  // Two explicit roundings (see header comment): keep the product in a
  // named temporary so the compiler cannot contract to a single-rounding
  // fma even where one exists.
  F64x4 r;
  for (int i = 0; i < 4; ++i) {
    const double m = a.v[i] * b.v[i];
    r.v[i] = m + c.v[i];
  }
  return r;
}
inline F64x4 Min(F64x4 a, F64x4 b) {
  return {{std::min(a.v[0], b.v[0]), std::min(a.v[1], b.v[1]),
           std::min(a.v[2], b.v[2]), std::min(a.v[3], b.v[3])}};
}
inline F64x4 Max(F64x4 a, F64x4 b) {
  return {{std::max(a.v[0], b.v[0]), std::max(a.v[1], b.v[1]),
           std::max(a.v[2], b.v[2]), std::max(a.v[3], b.v[3])}};
}
inline F64x4 Reverse(F64x4 x) {
  return {{x.v[3], x.v[2], x.v[1], x.v[0]}};
}
/// Even/odd split of the 8-double stream {a | b}: even = {a0, a2, b0, b2},
/// odd = {a1, a3, b1, b3} — the scalar spelling of the x86/NEON shuffles.
inline void DeinterleaveEvenOdd(F64x4 a, F64x4 b, F64x4* even, F64x4* odd) {
  *even = {{a.v[0], a.v[2], b.v[0], b.v[2]}};
  *odd = {{a.v[1], a.v[3], b.v[1], b.v[3]}};
}

struct M64x4 {
  bool m[4];
};
inline M64x4 CmpLT(F64x4 a, F64x4 b) {
  return {{a.v[0] < b.v[0], a.v[1] < b.v[1], a.v[2] < b.v[2],
           a.v[3] < b.v[3]}};
}
inline M64x4 CmpGT(F64x4 a, F64x4 b) {
  return {{a.v[0] > b.v[0], a.v[1] > b.v[1], a.v[2] > b.v[2],
           a.v[3] > b.v[3]}};
}
inline M64x4 CmpGE(F64x4 a, F64x4 b) {
  return {{a.v[0] >= b.v[0], a.v[1] >= b.v[1], a.v[2] >= b.v[2],
           a.v[3] >= b.v[3]}};
}
inline M64x4 CmpEQ(F64x4 a, F64x4 b) {
  return {{a.v[0] == b.v[0], a.v[1] == b.v[1], a.v[2] == b.v[2],
           a.v[3] == b.v[3]}};
}
inline F64x4 Blend(M64x4 m, F64x4 t, F64x4 f) {
  F64x4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = m.m[i] ? t.v[i] : f.v[i];
  return r;
}
inline int MoveMask(M64x4 m) {
  return (m.m[0] ? 1 : 0) | (m.m[1] ? 2 : 0) | (m.m[2] ? 4 : 0) |
         (m.m[3] ? 8 : 0);
}

#endif  // backend sections

// ===========================================================================
// Backend-independent helpers (defined on the ops above, so each is
// automatically bit-identical across backends).
// ===========================================================================

/// Lane-order fold with +: ((l0 + l1) + l2) + l3. The fixed association is
/// the determinism contract — never replace with a tree/horizontal add.
inline double ReduceAddOrdered(F64x4 x) {
  return ((x.Lane(0) + x.Lane(1)) + x.Lane(2)) + x.Lane(3);
}
/// Lane-order fold with std::max (NaN lanes after lane 0 are ignored,
/// exactly as a scalar running-max loop would).
inline double ReduceMaxOrdered(F64x4 x) {
  return std::max(std::max(std::max(x.Lane(0), x.Lane(1)), x.Lane(2)),
                  x.Lane(3));
}
inline double ReduceMinOrdered(F64x4 x) {
  return std::min(std::min(std::min(x.Lane(0), x.Lane(1)), x.Lane(2)),
                  x.Lane(3));
}

}  // namespace simd
}  // namespace mvg

#endif  // MVG_UTIL_SIMD_H_
