// Register-tiled GEMM micro-kernels behind gemm_nn / gemm_tn / gemm_nt
// (ops.hpp), templated on the vector type of their tiles: v8f (eight
// floats) or v16f (sixteen). ops.cpp instantiates HostVec, the widest one
// the target computes in single registers; tests/test_tensor.cpp
// instantiates both, so either width is checked on any host.
//
// Every GEMM output is a fixed sequence of the fmadd below (ops.hpp). The
// kernels only choose which of those sequences run side by side in
// registers, never their order or their rounding, so both widths compute
// the same bits.
//
// Everything here has internal linkage. The including unit chooses the
// flags (the kernel unit and its bit-for-bit test use the same ones), and
// no instantiation may be shared with a unit built with other flags.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dt::tensor::kernels {
namespace {

// The one multiply-add every chain is built from: std::fma, correctly
// rounded on every build, so every build computes the same bits. It is one
// instruction where the unit is built with FMA (__FMA__); elsewhere glibc
// dispatches it to FMA3 at run time on x86-64, and only pre-FMA CPUs run it
// in software. It is spelled out rather than left to -ffp-contract: GCC's
// vectorizer does not contract a*b + c consistently in tiled code, so a
// fused build could mix fused and unfused steps depending on the tile.
inline float fmadd(float a, float b, float c) { return std::fma(a, b, c); }

// Fixed-width GNU vectors make the lane layout explicit (gemm_nt's combine
// tree depends on it) and leave the mapping to the target: a v16f is one
// AVX-512 register, two AVX ones or four SSE ones. Units that include this
// header build with -Wno-psabi (src/tensor/CMakeLists.txt): the vector
// arguments never cross a unit boundary.
typedef float v4f __attribute__((vector_size(16)));
typedef float v8f __attribute__((vector_size(32)));
typedef float v16f __attribute__((vector_size(64)));

// The production width. Sixteen 16-float accumulators fit the 32 AVX-512
// registers; on AVX2 or SSE they would spill, so those builds keep v8f.
#ifdef __AVX512F__
using HostVec = v16f;
#else
using HostVec = v8f;
#endif

template <class V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(float));

template <class V>
inline V load(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
inline void store(float* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

template <class V, std::size_t... L>
inline V splat(float x, std::index_sequence<L...>) {
  return V{((void)L, x)...};
}

template <class V>
inline V splat(float x) {
  return splat<V>(x, std::make_index_sequence<kLanes<V>>{});
}

// [x | y]: a v8f in each half.
inline v16f join(v8f x, v8f y) {
#ifdef __AVX512F__
  // An insert, which takes y from memory; GCC lowers the shuffle below to a
  // register shuffle after two loads. (The masked forms, with every lane
  // selected, avoid GCC 12's uninitialized-source warning.)
  const __m512d zero = _mm512_setzero_pd();
  return _mm512_castpd_ps(_mm512_mask_insertf64x4(
      zero, 0xff, _mm512_mask_broadcast_f64x4(zero, 0xff, _mm256_castps_pd(x)),
      _mm256_castps_pd(y), 1));
#else
  return __builtin_shufflevector(x, y, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                 12, 13, 14, 15);
#endif
}

inline v8f low_half(v16f x) {
  return __builtin_shufflevector(x, x, 0, 1, 2, 3, 4, 5, 6, 7);
}

inline v8f high_half(v16f x) {
  return __builtin_shufflevector(x, x, 8, 9, 10, 11, 12, 13, 14, 15);
}

// Lane-wise fmadd: one vector FMA where __FMA__ holds, else the scalar
// fmadd per lane. The intrinsics pin one instruction per register, which
// the per-lane loop leaves to the vectorizer's preferred width.
template <class V>
inline V fmadd(V a, V b, V c) {
#if defined(__FMA__) && (defined(__x86_64__) || defined(__i386__))
  if constexpr (sizeof(V) == 32) return _mm256_fmadd_ps(a, b, c);
#ifdef __AVX512F__
  if constexpr (sizeof(V) == 64) return _mm512_fmadd_ps(a, b, c);
#endif
#endif
  V r;
#pragma GCC unroll 16
  for (int l = 0; l < kLanes<V>; ++l) r[l] = fmadd(a[l], b[l], c[l]);
  return r;
}

#ifdef __AVX__
// All-ones in lanes [0, count) of eight, for the AVX masked moves.
inline __m256i lane_mask8(int count) {
  static constexpr std::int32_t kBits[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                             0,  0,  0,  0,  0,  0,  0,  0};
  __m256i m;
  std::memcpy(&m, kBits + 8 - count, sizeof m);
  return m;
}
#endif

// Lanes [0, count) from p, the others `pad`; nothing past p + count is
// read. 0 <= count <= lanes.
template <class V>
inline V load_first(const float* p, int count, float pad) {
  if constexpr (sizeof(V) == 64) {
#ifdef __AVX512F__
    return _mm512_mask_loadu_ps(splat<V>(pad),
                                static_cast<__mmask16>((1u << count) - 1), p);
#else
    if (count <= 8) {
      return join(load_first<v8f>(p, count, pad), splat<v8f>(pad));
    }
    return join(load<v8f>(p), load_first<v8f>(p + 8, count - 8, pad));
#endif
  } else {
#ifdef __AVX__
    const __m256i m = lane_mask8(count);
    return _mm256_blendv_ps(splat<V>(pad), _mm256_maskload_ps(p, m),
                            _mm256_castsi256_ps(m));
#else
    V v = splat<V>(pad);
    for (int l = 0; l < count; ++l) v[l] = p[l];
    return v;
#endif
  }
}

// Stores lanes [0, count) of v to p and touches nothing past them.
template <class V>
inline void store_first(float* p, V v, int count) {
  if constexpr (sizeof(V) == 64) {
#ifdef __AVX512F__
    _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << count) - 1), v);
#else
    if (count <= 8) {
      store_first(p, low_half(v), count);
    } else {
      store(p, low_half(v));
      store_first(p + 8, high_half(v), count - 8);
    }
#endif
  } else {
#ifdef __AVX__
    _mm256_maskstore_ps(p, lane_mask8(count), v);
#else
    for (int l = 0; l < count; ++l) p[l] = v[l];
#endif
  }
}

// Per-host-thread scratch for B panels: GEMMs run concurrently on the
// runtime's compute pool, so this must not be shared across threads.
thread_local std::vector<float> g_scratch;

float* scratch(std::size_t floats) {
  if (g_scratch.size() < floats) g_scratch.resize(floats);
  return g_scratch.data();
}

// ---- gemm_nn / gemm_tn ------------------------------------------------------

// Cache blocking: a kKc x kNc block of B (128 KiB) is swept by every row
// tile before the next block is touched. Blocking cuts each chain into
// consecutive pieces, parked in C in between, which rounds nothing. When
// B's rows are wider than a block, the block is first copied into a
// contiguous panel, so a tile walks consecutive memory rather than one
// page per step.
constexpr std::int64_t kNc = 256;  // B columns per block
constexpr std::int64_t kKc = 128;  // reduction steps per block
constexpr int kMr = 8;             // C rows per register tile

// Row r of a tile reads a(r, s) = a[r][s * a_step].
using TileRows = const float* [kMr];

// One kMr x (W * NV) tile of C, W = kLanes<V>, held in registers over
// `steps` steps:
//   acc[r][j] = fmadd(a(r, s), b[s][j], acc[r][j]),  s = 0, 1, ..., steps-1
// The accumulators start from C (`load_c`) or from +0, and are stored once
// at the end. Only the first `rows` rows lie inside C: rows past the edge
// repeat the last row of A (see gemm_rows) and are neither loaded nor
// stored. In an edge tile (kEdge) only the first `last` lanes of the last
// vector lie inside C, and masked moves keep its B loads and C accesses
// inside the matrix.
template <class V, int NV, bool kEdge>
void gemm_tile(const TileRows& a, std::int64_t a_step, const float* b,
               std::int64_t ldb, float* c, std::int64_t ldc,
               std::int64_t steps, std::int64_t rows, int last, bool load_c) {
  constexpr int W = kLanes<V>;
  auto clipped = [](int v) { return kEdge && v == NV - 1; };
  V acc[kMr][NV];
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      const float* cp = c + r * ldc + W * v;
      acc[r][v] = !load_c || r >= rows ? V{}
                  : clipped(v)         ? load_first<V>(cp, last, 0.0f)
                                       : load<V>(cp);
    }
  }
  for (std::int64_t s = 0; s < steps; ++s) {
    V bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      const float* bp = b + s * ldb + W * v;
      bv[v] = clipped(v) ? load_first<V>(bp, last, 0.0f) : load<V>(bp);
    }
#pragma GCC unroll 8
    for (int r = 0; r < kMr; ++r) {
      const V av = splat<V>(a[r][s * a_step]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) acc[r][v] = fmadd(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
    if (r >= rows) break;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      float* cp = c + r * ldc + W * v;
      if (clipped(v)) {
        store_first(cp, acc[r][v], last);
      } else {
        store(cp, acc[r][v]);
      }
    }
  }
}

// C(rows x n) (+)= sum over s of a(r, s) * B[s][:], B row-major with `steps`
// rows: the shared body of gemm_nn (a(r, s) = A[r][s]) and gemm_tn
// (a(r, s) = A[s][r]).
//
// Each row block is covered by 2W-wide tiles. The 1..2W-1 columns left
// over are one edge tile of one or two vectors, which reads B and C in
// place: a narrow output such as the MLP's 10 classes is one vector pass,
// with no padded copy of B or C.
template <class V>
void gemm_rows(const float* a, std::int64_t a_row, std::int64_t a_step,
               const float* b, float* c, std::int64_t rows, std::int64_t steps,
               std::int64_t n, bool accumulate) {
  constexpr int W = kLanes<V>;
  for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
    const std::int64_t nc = std::min(kNc, n - j0);
    const std::int64_t whole = nc / (2 * W) * (2 * W);
    const int rest = static_cast<int>(nc - whole);
    // A product with no steps still clears C when not accumulating.
    for (std::int64_t s0 = 0; s0 < std::max<std::int64_t>(steps, 1);
         s0 += kKc) {
      const std::int64_t kc = std::min(kKc, steps - s0);
      const bool load_c = accumulate || s0 > 0;
      const float* bp = b + s0 * n + j0;
      std::int64_t ldb = n;
      if (n > kNc) {
        float* const panel = scratch(static_cast<std::size_t>(kc * nc));
        for (std::int64_t s = 0; s < kc; ++s) {
          std::memcpy(panel + s * nc, bp + s * n, sizeof(float) * nc);
        }
        bp = panel;
        ldb = nc;
      }
      for (std::int64_t r0 = 0; r0 < rows; r0 += kMr) {
        const std::int64_t mr = std::min<std::int64_t>(kMr, rows - r0);
        TileRows ar;
#pragma GCC unroll 8
        for (int r = 0; r < kMr; ++r) {
          const std::int64_t row = std::min<std::int64_t>(r0 + r, rows - 1);
          ar[r] = a + row * a_row + s0 * a_step;
        }
        float* cr = c + r0 * n + j0;
        for (std::int64_t j = 0; j < whole; j += 2 * W) {
          gemm_tile<V, 2, false>(ar, a_step, bp + j, ldb, cr + j, n, kc, mr,
                                 W, load_c);
        }
        if (rest > W) {
          gemm_tile<V, 2, true>(ar, a_step, bp + whole, ldb, cr + whole, n,
                                kc, mr, rest - W, load_c);
        } else if (rest > 0) {
          gemm_tile<V, 1, true>(ar, a_step, bp + whole, ldb, cr + whole, n,
                                kc, mr, rest, load_c);
        }
      }
    }
  }
}

// C[m x n] (+)= A[m x k] * B[k x n].
template <class V>
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_rows<V>(a, k, 1, b, c, m, k, n, accumulate);
}

// C[k x n] (+)= A[m x k]^T * B[m x n].
template <class V>
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_rows<V>(a, 1, k, b, c, k, m, n, accumulate);
}

// ---- gemm_nt ----------------------------------------------------------------

// Every dot product runs in eight lanes. A v8f holds one dot; a v16f holds
// two, one per half, so one fmadd and one combine shuffle serve both.
constexpr int kDotRowsA = 4;  // A rows per dot tile
constexpr int kDotVecs = 4;   // accumulators per A row

template <class V>
constexpr int kDotRowsB = kDotVecs * kLanes<V> / 8;  // B rows per dot tile

// Within each eight-lane half of x and y:
// [x0+x1, x2+x3, y0+y1, y2+y3, x4+x5, x6+x7, y4+y5, y6+y7]
inline v8f pair_sums(v8f x, v8f y) {
  return __builtin_shufflevector(x, y, 0, 2, 8, 10, 4, 6, 12, 14) +
         __builtin_shufflevector(x, y, 1, 3, 9, 11, 5, 7, 13, 15);
}

inline v16f pair_sums(v16f x, v16f y) {
  return __builtin_shufflevector(x, y, 0, 2, 16, 18, 4, 6, 20, 22, 8, 10, 24,
                                 26, 12, 14, 28, 30) +
         __builtin_shufflevector(x, y, 1, 3, 17, 19, 5, 7, 21, 23, 9, 11, 25,
                                 27, 13, 15, 29, 31);
}

// Entry q is ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)) over the
// lanes l of dot q: the combine tree of every dot of one A row at once.
// For v8f the dots are d[0..3]; for v16f the low halves of d[0..3], then
// the high halves.
inline v4f combine(const v8f (&d)[kDotVecs]) {
  // g = [sums of lanes 0-3 of d0..d3 | sums of lanes 4-7 of d0..d3]
  const v8f g = pair_sums(pair_sums(d[0], d[1]), pair_sums(d[2], d[3]));
  return __builtin_shufflevector(g, g, 0, 1, 2, 3) +
         __builtin_shufflevector(g, g, 4, 5, 6, 7);
}

inline v8f combine(const v16f (&d)[kDotVecs]) {
  const v16f g = pair_sums(pair_sums(d[0], d[1]), pair_sums(d[2], d[3]));
  return __builtin_shufflevector(g, g, 0, 1, 2, 3, 8, 9, 10, 11) +
         __builtin_shufflevector(g, g, 4, 5, 6, 7, 12, 13, 14, 15);
}

// The eight floats of a dot operand at p, or the last group's count < 8
// with `pad` in the missing lanes.
inline v8f dot_group(const float* p, int count, float pad) {
  return count == 8 ? load<v8f>(p) : load_first<v8f>(p, count, pad);
}

// A register of B holds row q, and row q + kDotVecs in the high half of a
// v16f; missing lanes read +0.
template <class V>
inline V dot_b_operand(const float* const* rows, int q, std::int64_t j,
                       int count) {
  if constexpr (sizeof(V) == 32) {
    return dot_group(rows[q] + j, count, 0.0f);
  } else {
    return join(dot_group(rows[q] + j, count, 0.0f),
                dot_group(rows[q + kDotVecs] + j, count, 0.0f));
  }
}

// A register of A repeats its row in both halves of a v16f; missing lanes
// read -0 (see dot_tile).
template <class V>
inline V dot_a_operand(const float* row, std::int64_t j, int count) {
  const v8f x = dot_group(row + j, count, -0.0f);
  if constexpr (sizeof(V) == 32) {
    return x;
  } else {
#ifdef __AVX512F__
    // A broadcast from memory, where join(x, x) would shuffle registers.
    return _mm512_castpd_ps(_mm512_mask_broadcast_f64x4(
        _mm512_setzero_pd(), 0xff, _mm256_castps_pd(x)));
#else
    return join(x, x);
#endif
  }
}

// acc[r][q] = fmadd(a rows, b rows, acc[r][q]) over the `count` floats at
// j (count < 8 only for the last group).
template <class V>
inline void dot_step(V (&acc)[kDotRowsA][kDotVecs],
                     const float* const (&ar)[kDotRowsA],
                     const float* const (&br)[kDotRowsB<V>], std::int64_t j,
                     int count) {
  V bv[kDotVecs];
#pragma GCC unroll 4
  for (int q = 0; q < kDotVecs; ++q) {
    bv[q] = dot_b_operand<V>(br, q, j, count);
  }
#pragma GCC unroll 4
  for (int r = 0; r < kDotRowsA; ++r) {
    const V av = dot_a_operand<V>(ar[r], j, count);
#pragma GCC unroll 4
    for (int q = 0; q < kDotVecs; ++q) acc[r][q] = fmadd(av, bv[q], acc[r][q]);
  }
}

// A kDotRowsA x kDotRowsB block of dot products of A rows with B rows, each
// in eight lanes:
//   lane[l] = fmadd(a[j], b[j], lane[l]),  j = l, l + 8, l + 16, ... < n
// then combine, then C = d (or C + d). Rows past the matrix edge repeat
// its last row, and their results are dropped. The last partial group of
// eight is read with a = -0 and b = +0 in the missing lanes: their product
// -0 leaves a lane unchanged (x + -0 == x for every x, zeros included).
template <class V>
void dot_tile(const float* a, std::int64_t rows_a, const float* b,
              std::int64_t rows_b, float* c, std::int64_t n, std::int64_t ldc,
              bool accumulate) {
  constexpr int kCols = kDotRowsB<V>;
  const float* ar[kDotRowsA];
  const float* br[kCols];
#pragma GCC unroll 4
  for (int t = 0; t < kDotRowsA; ++t) {
    ar[t] = a + std::min<std::int64_t>(t, rows_a - 1) * n;
  }
#pragma GCC unroll 8
  for (int t = 0; t < kCols; ++t) {
    br[t] = b + std::min<std::int64_t>(t, rows_b - 1) * n;
  }
  const std::int64_t n8 = n / 8 * 8;
  V acc[kDotRowsA][kDotVecs] = {};
  for (std::int64_t j = 0; j < n8; j += 8) dot_step(acc, ar, br, j, 8);
  if (n8 < n) dot_step(acc, ar, br, n8, static_cast<int>(n - n8));
#pragma GCC unroll 4
  for (int r = 0; r < kDotRowsA; ++r) {
    if (r == rows_a) break;
    float* cr = c + r * ldc;
    const auto d = combine(acc[r]);
    if (rows_b >= kCols) {
      auto out = d;
      if (accumulate) {
        std::memcpy(&out, cr, sizeof out);
        out += d;
      }
      std::memcpy(cr, &out, sizeof out);
    } else {
      for (std::int64_t q = 0; q < rows_b; ++q) {
        cr[q] = accumulate ? cr[q] + d[q] : d[q];
      }
    }
  }
}

// C[m x k] (+)= A[m x n] * B[k x n]^T: rows of A against rows of B, a grid
// of dot products over contiguous data.
template <class V>
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  for (std::int64_t i = 0; i < m; i += kDotRowsA) {
    for (std::int64_t p = 0; p < k; p += kDotRowsB<V>) {
      dot_tile<V>(a + i * n, m - i, b + p * n, k - p, c + i * k + p, n, k,
                  accumulate);
    }
  }
}

}  // namespace
}  // namespace dt::tensor::kernels
