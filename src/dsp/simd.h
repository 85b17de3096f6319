// Portable double-precision SIMD layer for the PHY hot kernels.
//
// One vector type, `DVec`, wraps the widest ISA the build enables:
// AVX2 (4 lanes), SSE2 or NEON (2 lanes), or a scalar stand-in
// (1 lane). The instruction set is picked at COMPILE time (HOLTWLAN_SIMD
// plus the compiler's target macros); whether a kernel uses the vector
// path at all is picked at RUN time, once per kernel call ("plan
// level"), via `vector_enabled()` — so one binary can run and compare
// both paths, which is how the bitwise-equality tests and the
// scalar-vs-SIMD micro-benches work.
//
// Determinism contract: every operation here maps to one IEEE-754
// double operation per lane (add/sub/mul/div/min/max, sign flips via
// XOR, compares, blends). Lanes never interact — no horizontal sums, no
// reassociation, no FMA (the build pins -ffp-contract=off) — so a
// vectorized kernel is bitwise identical to its scalar loop as long as
// it performs the same per-element arithmetic in any order. Kernels
// built on this layer are required to keep that property; the
// `test_simd` suite enforces it.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(HOLTWLAN_SIMD) && defined(__AVX2__)
#define HOLTWLAN_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(HOLTWLAN_SIMD) && defined(__SSE2__)
#define HOLTWLAN_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(HOLTWLAN_SIMD) && defined(__ARM_NEON) && defined(__aarch64__)
#define HOLTWLAN_SIMD_NEON 1
#include <arm_neon.h>
#else
#define HOLTWLAN_SIMD_SCALAR 1
#endif

namespace wlan::dsp::simd {

/// The instruction set the binary was compiled for.
enum class Isa { kScalar, kSse2, kAvx2, kNeon };

constexpr Isa compiled_isa() {
#if defined(HOLTWLAN_SIMD_AVX2)
  return Isa::kAvx2;
#elif defined(HOLTWLAN_SIMD_SSE2)
  return Isa::kSse2;
#elif defined(HOLTWLAN_SIMD_NEON)
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

const char* isa_name(Isa isa);

/// Run-time kernel dispatch: when false, every kernel takes its scalar
/// reference loop even in a SIMD build. Defaults to true when the build
/// has vector lanes. Plan-level granularity: kernels read this once per
/// call, never per element.
bool vector_enabled() noexcept;

/// Forces (or restores) the scalar reference path; used by the equality
/// tests and the micro-benches. Affects all threads.
void set_vector_enabled(bool enabled) noexcept;

// ---------------------------------------------------------------------------
// DVec: `width()` independent double lanes.
// ---------------------------------------------------------------------------

#if defined(HOLTWLAN_SIMD_AVX2)

struct DVec {
  __m256d v;
  static constexpr std::size_t width() { return 4; }

  static DVec load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static DVec splat(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  friend DVec operator+(DVec a, DVec b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend DVec operator-(DVec a, DVec b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend DVec operator*(DVec a, DVec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend DVec operator/(DVec a, DVec b) { return {_mm256_div_pd(a.v, b.v)}; }
};

/// Lanewise (b < a) ? b : a — matches std::min(a, b) for non-NaN input.
inline DVec min_with(DVec a, DVec b) { return {_mm256_min_pd(b.v, a.v)}; }
/// Lanewise (a < b) ? b : a — matches std::max(a, b) for non-NaN input.
inline DVec max_with(DVec a, DVec b) { return {_mm256_max_pd(b.v, a.v)}; }
/// Lanewise |x| via sign-bit clear (exact).
inline DVec abs(DVec a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
/// Lanewise x with the sign bit flipped (exact negation).
inline DVec negate(DVec a) {
  return {_mm256_xor_pd(_mm256_set1_pd(-0.0), a.v)};
}
/// Lanewise (a > b) ? c : d, plus the mask bits of a > b.
inline DVec select_gt(DVec a, DVec b, DVec c, DVec d) {
  const __m256d m = _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ);
  return {_mm256_blendv_pd(d.v, c.v, m)};
}
/// Bit i set iff lane i satisfies a > b (ordered, quiet).
inline unsigned mask_gt(DVec a, DVec b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)));
}
/// Bit i set iff lane i satisfies a < b (ordered, quiet).
inline unsigned mask_lt(DVec a, DVec b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)));
}
/// Lane w = base[idx[w]] — an exact elementwise load (no arithmetic).
/// The masked form with every lane enabled loads the same lanes as
/// _mm256_i32gather_pd, whose GCC expansion reads an uninitialized
/// pass-through register (-Wmaybe-uninitialized).
inline DVec gather(const double* base, const std::uint32_t* idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return {_mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base,
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)), all, 8)};
}

#elif defined(HOLTWLAN_SIMD_SSE2)

struct DVec {
  __m128d v;
  static constexpr std::size_t width() { return 2; }

  static DVec load(const double* p) { return {_mm_loadu_pd(p)}; }
  static DVec splat(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }

  friend DVec operator+(DVec a, DVec b) { return {_mm_add_pd(a.v, b.v)}; }
  friend DVec operator-(DVec a, DVec b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend DVec operator*(DVec a, DVec b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend DVec operator/(DVec a, DVec b) { return {_mm_div_pd(a.v, b.v)}; }
};

inline DVec min_with(DVec a, DVec b) { return {_mm_min_pd(b.v, a.v)}; }
inline DVec max_with(DVec a, DVec b) { return {_mm_max_pd(b.v, a.v)}; }
inline DVec abs(DVec a) {
  return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
}
inline DVec negate(DVec a) {
  return {_mm_xor_pd(_mm_set1_pd(-0.0), a.v)};
}
inline DVec select_gt(DVec a, DVec b, DVec c, DVec d) {
  const __m128d m = _mm_cmpgt_pd(a.v, b.v);
  return {_mm_or_pd(_mm_and_pd(m, c.v), _mm_andnot_pd(m, d.v))};
}
inline unsigned mask_gt(DVec a, DVec b) {
  return static_cast<unsigned>(_mm_movemask_pd(_mm_cmpgt_pd(a.v, b.v)));
}
inline unsigned mask_lt(DVec a, DVec b) {
  return static_cast<unsigned>(_mm_movemask_pd(_mm_cmplt_pd(a.v, b.v)));
}
inline DVec gather(const double* base, const std::uint32_t* idx) {
  return {_mm_set_pd(base[idx[1]], base[idx[0]])};
}

#elif defined(HOLTWLAN_SIMD_NEON)

struct DVec {
  float64x2_t v;
  static constexpr std::size_t width() { return 2; }

  static DVec load(const double* p) { return {vld1q_f64(p)}; }
  static DVec splat(double x) { return {vdupq_n_f64(x)}; }
  void store(double* p) const { vst1q_f64(p, v); }

  friend DVec operator+(DVec a, DVec b) { return {vaddq_f64(a.v, b.v)}; }
  friend DVec operator-(DVec a, DVec b) { return {vsubq_f64(a.v, b.v)}; }
  friend DVec operator*(DVec a, DVec b) { return {vmulq_f64(a.v, b.v)}; }
  friend DVec operator/(DVec a, DVec b) { return {vdivq_f64(a.v, b.v)}; }
};

inline DVec min_with(DVec a, DVec b) {
  // (b < a) ? b : a, matching std::min's tie/ordering semantics.
  const uint64x2_t m = vcltq_f64(b.v, a.v);
  return {vbslq_f64(m, b.v, a.v)};
}
inline DVec max_with(DVec a, DVec b) {
  const uint64x2_t m = vcltq_f64(a.v, b.v);
  return {vbslq_f64(m, b.v, a.v)};
}
inline DVec abs(DVec a) { return {vabsq_f64(a.v)}; }
inline DVec negate(DVec a) { return {vnegq_f64(a.v)}; }
inline DVec select_gt(DVec a, DVec b, DVec c, DVec d) {
  return {vbslq_f64(vcgtq_f64(a.v, b.v), c.v, d.v)};
}
inline unsigned mask_gt(DVec a, DVec b) {
  const uint64x2_t m = vcgtq_f64(a.v, b.v);
  return static_cast<unsigned>((vgetq_lane_u64(m, 0) & 1u) |
                               ((vgetq_lane_u64(m, 1) & 1u) << 1));
}
inline unsigned mask_lt(DVec a, DVec b) {
  const uint64x2_t m = vcltq_f64(a.v, b.v);
  return static_cast<unsigned>((vgetq_lane_u64(m, 0) & 1u) |
                               ((vgetq_lane_u64(m, 1) & 1u) << 1));
}
inline DVec gather(const double* base, const std::uint32_t* idx) {
  float64x2_t r = vdupq_n_f64(base[idx[0]]);
  r = vsetq_lane_f64(base[idx[1]], r, 1);
  return {r};
}

#else  // scalar stand-in

struct DVec {
  double v;
  static constexpr std::size_t width() { return 1; }

  static DVec load(const double* p) { return {*p}; }
  static DVec splat(double x) { return {x}; }
  void store(double* p) const { *p = v; }

  friend DVec operator+(DVec a, DVec b) { return {a.v + b.v}; }
  friend DVec operator-(DVec a, DVec b) { return {a.v - b.v}; }
  friend DVec operator*(DVec a, DVec b) { return {a.v * b.v}; }
  friend DVec operator/(DVec a, DVec b) { return {a.v / b.v}; }
};

inline DVec min_with(DVec a, DVec b) { return {b.v < a.v ? b.v : a.v}; }
inline DVec max_with(DVec a, DVec b) { return {a.v < b.v ? b.v : a.v}; }
inline DVec abs(DVec a) { return {a.v < 0.0 ? -a.v : a.v}; }
inline DVec negate(DVec a) { return {-a.v}; }
inline DVec select_gt(DVec a, DVec b, DVec c, DVec d) {
  return {a.v > b.v ? c.v : d.v};
}
inline unsigned mask_gt(DVec a, DVec b) { return a.v > b.v ? 1u : 0u; }
inline unsigned mask_lt(DVec a, DVec b) { return a.v < b.v ? 1u : 0u; }
inline DVec gather(const double* base, const std::uint32_t* idx) {
  return {base[idx[0]]};
}

#endif

inline constexpr std::size_t kWidth = DVec::width();

}  // namespace wlan::dsp::simd
