#include "align/myers_simd.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

// Lane-batched implementation notes.
//
// Correctness strategy: this file re-runs the *identical* computation
// of MyersMatcher::best_in_bounded — same band schedule (activation /
// freeze / segment boundaries, all closed-form in j given m, t, δ and
// therefore shared by every lane of a bucket), same column dataflow,
// same branchless boundary-score tracking, same early-exit rule — with
// the per-lane 64-bit state transposed into structure-of-arrays form.
// The scalar scan's fused single-word / two-word segment specials are
// algebraically the generic word loop restricted to their spans, so
// matching the generic dataflow matches every scalar segment shape
// bit for bit. A lane whose scalar scan would have stopped at column j
// freezes its result there; the batch keeps advancing the remaining
// lanes, which cannot disturb a frozen lane's recorded hit (its
// boundary score is parked at a sentinel no later column can improve).
//
// Performance strategy: the kLanes-wide state is a small array of
// *native-width* GNU vector-extension registers (1×512-bit under
// -mavx512f, 2×256-bit under -mavx2, 4×128-bit under SSE), so one
// column step is straight-line
// vector arithmetic over registers. Two tempting alternatives fail on
// GCC: plain 8-trip lane loops get fully unrolled before the
// vectorizer runs and the state round-trips through memory between
// them; and a single 512-bit vector type triggers generic (memory-
// bound) lowering on non-AVX512 targets. The bottom-row bookkeeping
// (best-so-far, early-exit test) is compare/blend vector code too; the
// only scalar work left is one packed-word transpose pass per batch
// and a rare finalize step on the columns where a lane actually
// settles.
// Compilers without the GNU vector extension compile the same
// algorithm over a plain-array lane type with identical operator
// semantics, so every backend shares one source of truth.

namespace repute::align {

namespace lanes {

constexpr std::size_t kL = MyersSimdEngine::kLanes;

#if defined(__GNUC__) || defined(__clang__)

// 64-bit lanes per native vector register. The component count is a
// compile-time constant, so the per-component loops below fully unroll
// and scalar-replace into registers.
#if defined(__AVX512F__)
constexpr std::size_t kVL = 8;
#elif defined(__AVX2__)
constexpr std::size_t kVL = 4;
#elif defined(__SSE2__) || defined(__aarch64__) || defined(__ALTIVEC__)
constexpr std::size_t kVL = 2;
#else
constexpr std::size_t kVL = 1;
#endif
constexpr std::size_t kNV = kL / kVL;

typedef std::uint64_t VU __attribute__((vector_size(kVL * 8)));
typedef std::int64_t VS __attribute__((vector_size(kVL * 8)));

struct U {
    VU c[kNV];
};
struct S {
    VS c[kNV];
};

inline U operator&(U a, U b) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] & b.c[n];
    return r;
}
inline U operator|(U a, U b) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] | b.c[n];
    return r;
}
inline U operator^(U a, U b) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] ^ b.c[n];
    return r;
}
inline U operator+(U a, U b) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] + b.c[n];
    return r;
}
inline U operator-(U a, U b) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] - b.c[n];
    return r;
}
inline U operator~(U a) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = ~a.c[n];
    return r;
}
inline U operator<<(U a, unsigned s) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] << s;
    return r;
}
inline U operator>>(U a, unsigned s) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] >> s;
    return r;
}
inline S operator+(S a, S b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] + b.c[n];
    return r;
}
inline S operator-(S a, S b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] - b.c[n];
    return r;
}
inline S operator&(S a, S b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] & b.c[n];
    return r;
}
inline S operator|(S a, S b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] | b.c[n];
    return r;
}
inline S operator<(U a, U b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] < b.c[n];
    return r;
}
inline S operator==(U a, U b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] == b.c[n];
    return r;
}
inline S operator<(S a, S b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] < b.c[n];
    return r;
}
inline S operator>=(S a, S b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] >= b.c[n];
    return r;
}
inline S operator==(S a, S b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = a.c[n] == b.c[n];
    return r;
}
inline U ubc(std::uint64_t x) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = VU{} + x;
    return r;
}
inline S sbc(std::int64_t x) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = VS{} + x;
    return r;
}
inline S asi(U v) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n)
        r.c[n] = reinterpret_cast<VS&>(v.c[n]);
    return r;
}
inline U asu(S v) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n)
        r.c[n] = reinterpret_cast<VU&>(v.c[n]);
    return r;
}
inline U select(S m, U a, U b) noexcept {
    U r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = m.c[n] ? a.c[n] : b.c[n];
    return r;
}
inline S select(S m, S a, S b) noexcept {
    S r;
    for (std::size_t n = 0; n < kNV; ++n) r.c[n] = m.c[n] ? a.c[n] : b.c[n];
    return r;
}
inline U loadu(const std::uint64_t* p) noexcept {
    U r;
    std::memcpy(r.c, p, sizeof r.c);
    return r;
}
inline bool any(S m) noexcept {
    VS acc = m.c[0];
    for (std::size_t n = 1; n < kNV; ++n) acc = acc | m.c[n];
    std::int64_t bits = 0;
    for (std::size_t i = 0; i < kVL; ++i) bits |= acc[i];
    return bits != 0;
}
inline std::int64_t get(const S& v, std::size_t i) noexcept {
    return v.c[i / kVL][i % kVL];
}
inline void set(S& v, std::size_t i, std::int64_t x) noexcept {
    v.c[i / kVL][i % kVL] = x;
}

#else // portable fallback: the same ops over a plain-array lane type

template <typename T> struct Lane8 {
    T v[kL];
};
using U = Lane8<std::uint64_t>;
using S = Lane8<std::int64_t>;

inline U operator&(U a, U b) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] & b.v[i];
    return r;
}
inline U operator|(U a, U b) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] | b.v[i];
    return r;
}
inline U operator^(U a, U b) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] ^ b.v[i];
    return r;
}
inline U operator+(U a, U b) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
}
inline U operator-(U a, U b) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
}
inline U operator~(U a) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = ~a.v[i];
    return r;
}
inline U operator<<(U a, unsigned s) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] << s;
    return r;
}
inline U operator>>(U a, unsigned s) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] >> s;
    return r;
}
inline S operator+(S a, S b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
}
inline S operator-(S a, S b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
}
inline S operator&(S a, S b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] & b.v[i];
    return r;
}
inline S operator|(S a, S b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] | b.v[i];
    return r;
}
inline S operator<(U a, U b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] < b.v[i] ? -1 : 0;
    return r;
}
inline S operator==(U a, U b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] == b.v[i] ? -1 : 0;
    return r;
}
inline S operator<(S a, S b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] < b.v[i] ? -1 : 0;
    return r;
}
inline S operator>=(S a, S b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] >= b.v[i] ? -1 : 0;
    return r;
}
inline S operator==(S a, S b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = a.v[i] == b.v[i] ? -1 : 0;
    return r;
}
inline U ubc(std::uint64_t x) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = x;
    return r;
}
inline S sbc(std::int64_t x) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = x;
    return r;
}
inline S asi(U v) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i)
        r.v[i] = static_cast<std::int64_t>(v.v[i]);
    return r;
}
inline U asu(S v) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i)
        r.v[i] = static_cast<std::uint64_t>(v.v[i]);
    return r;
}
inline U select(S m, U a, U b) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i)
        r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
    return r;
}
inline S select(S m, S a, S b) noexcept {
    S r;
    for (std::size_t i = 0; i < kL; ++i)
        r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
    return r;
}
inline U loadu(const std::uint64_t* p) noexcept {
    U r;
    for (std::size_t i = 0; i < kL; ++i) r.v[i] = p[i];
    return r;
}
inline bool any(S m) noexcept {
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < kL; ++i) acc |= m.v[i];
    return acc != 0;
}
inline std::int64_t get(const S& v, std::size_t i) noexcept { return v.v[i]; }
inline void set(S& v, std::size_t i, std::int64_t x) noexcept { v.v[i] = x; }

#endif

} // namespace lanes

namespace {
constexpr std::size_t kMaxWords = MyersSimdEngine::kMaxPatternLength / 64;
constexpr std::size_t L = MyersSimdEngine::kLanes;
/// Parked boundary score of a settled lane: larger than any reachable
/// score (|b| drifts at most ±1 per column plus activation jumps
/// bounded by m ≤ 512), so a frozen lane can never look improved and
/// its stop test stays harmlessly true while masked out by the live
/// mask.
constexpr std::int64_t kFrozen = std::int64_t{1} << 40;
} // namespace

const char* myers_simd_backend() noexcept {
#if defined(REPUTE_SIMD_AVX512)
    return "avx512";
#elif defined(REPUTE_SIMD_AVX2)
    return "avx2";
#elif defined(REPUTE_SIMD_SSE42)
    return "sse4.2";
#else
    return "portable";
#endif
}

void bucket_by_length(std::span<const std::uint32_t> lengths,
                      std::vector<std::uint32_t>& order,
                      std::vector<LengthBucket>& buckets) {
    order.clear();
    buckets.clear();
    const std::size_t n = lengths.size();

    // Pass 1: distinct lengths in first-appearance order, with counts.
    // Candidate windows of one strand take only a handful of distinct
    // clamped lengths, so the linear bucket probe beats a sort (and,
    // unlike std::stable_sort, never allocates).
    for (std::size_t i = 0; i < n; ++i) {
        LengthBucket* found = nullptr;
        for (LengthBucket& b : buckets) {
            if (b.length == lengths[i]) {
                found = &b;
                break;
            }
        }
        if (found != nullptr) {
            ++found->count;
        } else {
            buckets.push_back({lengths[i], 0, 1});
        }
    }

    // Pass 2: prefix-sum the bucket starts, then scatter indices using
    // `first` as a write cursor (restored afterwards).
    std::uint32_t acc = 0;
    for (LengthBucket& b : buckets) {
        b.first = acc;
        acc += b.count;
    }
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (LengthBucket& b : buckets) {
            if (b.length == lengths[i]) {
                order[b.first++] = static_cast<std::uint32_t>(i);
                break;
            }
        }
    }
    for (LengthBucket& b : buckets) b.first -= b.count;
}

MyersSimdEngine::MyersSimdEngine(std::span<const std::uint8_t> pattern) {
    set_pattern(pattern);
}

void MyersSimdEngine::set_pattern(std::span<const std::uint8_t> pattern) {
    m_ = pattern.size();
    words_ = (pattern.size() + 63) / 64;
    if (m_ == 0 || m_ > kMaxPatternLength) {
        throw std::invalid_argument(
            "MyersSimdEngine: pattern length must be in [1, 512]");
    }
    const std::size_t top_bits = (m_ - 1) % 64 + 1;
    top_mask_ = top_bits == 64 ? ~0ULL : ((1ULL << top_bits) - 1);
    peq_.assign(4 * words_, 0);
    for (std::size_t i = 0; i < m_; ++i) {
        peq_[pattern[i] * words_ + i / 64] |= 1ULL << (i % 64);
    }
}

void MyersSimdEngine::best_in_bounded_multi(
    const PackedWindow* windows, std::size_t count,
    std::size_t text_length, std::uint32_t delta,
    Hit* out) const noexcept {
    using lanes::any;
    using lanes::asi;
    using lanes::asu;
    using lanes::get;
    using lanes::loadu;
    using lanes::sbc;
    using lanes::select;
    using lanes::set;
    using lanes::ubc;
    using lanes::S;
    using lanes::U;

    last_word_ops_ = 0;
    if (count == 0) return;

    const auto t = static_cast<std::int64_t>(text_length);
    const auto m = static_cast<std::int64_t>(m_);
    const auto d = static_cast<std::int64_t>(delta);
    const std::uint64_t* const peq = peq_.data();
    const std::size_t words = words_;

    // One transpose pass over packed words, not bases: each lane's
    // window is re-cut into words aligned to its own first base (word k
    // holds window bases [32k, 32k + 32)), stored lane-interleaved as
    // twords[k*L + l]. Column j then reads every lane's symbol at once
    // as (row j/32 >> 2·(j%32)) & 3 — the same shift in every lane —
    // and the Eq lookup is a compare/blend against the four symbol rows
    // of Peq. A lane reads only the words holding its window's bases.
    // Dead padding lanes (l >= count) replay lane 0 so nothing reads
    // out of bounds; their results are never written back.
    const std::size_t n_words = (text_length + 31) / 32;
    twords_.resize(n_words * L);
    std::uint64_t* const twords = twords_.data();
    for (std::size_t l = 0; l < L; ++l) {
        const PackedWindow& window = windows[l < count ? l : 0];
        const std::uint64_t* const src = window.words + (window.base >> 5);
        const std::size_t shift = (window.base & 31) * 2;
        const std::size_t last_word = (shift / 2 + text_length - 1) >> 5;
        for (std::size_t k = 0; k < n_words; ++k) {
            std::uint64_t v = src[k] >> shift;
            if (shift != 0 && k < last_word) v |= src[k + 1] << (64 - shift);
            twords[k * L + l] = v;
        }
    }
    const U threev = ubc(3);
    const auto symbols = [&](std::int64_t col) {
        const auto c = static_cast<std::size_t>(col);
        return (loadu(twords + (c >> 5) * L) >>
                static_cast<unsigned>((c & 31) * 2)) &
               threev;
    };

    // Lane state: lane l of vector word w is candidate l's word w.
    U vp[kMaxWords];
    U vn[kMaxWords];
    for (std::size_t w = 0; w < words; ++w) {
        vp[w] = ubc(w == words - 1 ? top_mask_ : ~0ULL);
        vn[w] = U{};
    }

    std::size_t w_lo = 0;
    std::size_t w_hi =
        std::min(words - 1, static_cast<std::size_t>((d + 2) / 64));
    const std::int64_t boundary0 =
        std::min<std::int64_t>(64 * static_cast<std::int64_t>(w_hi + 1), m);

    S bv = sbc(kFrozen); // boundary score E[boundary][j], per lane
    S best_dv = sbc(m);  // best bottom-row score so far
    S best_ev = S{};     // its earliest end column
    S livev = S{};       // ~0 while scanning, 0 once settled
    bool early[L] = {};
    for (std::size_t l = 0; l < count; ++l) {
        set(bv, l, boundary0);
        set(livev, l, -1);
    }
    std::size_t n_live = count;
    std::uint64_t ops = 0;
    const S dp1v = sbc(d + 1);

    // Bottom-row bookkeeping for one column, identical decision order
    // to the scalar scan: update best on strict improvement, then stop
    // on a certified 0 or once the 1-Lipschitz bottom row can no longer
    // cross the decision threshold in the remaining columns. All
    // compare/blend; the scalar finalize loop runs only on the rare
    // columns where some lane actually settles.
    const auto settle_lanes = [&](std::int64_t j) {
        const std::int64_t jj = j + 1;
        const S improved = bv < best_dv;
        best_ev = select(improved, sbc(jj), best_ev);
        best_dv = select(improved, bv, best_dv);
        const S bound = select(best_dv < dp1v, best_dv, dp1v);
        const S stop =
            ((best_dv == S{}) | (bv >= bound + sbc(t - jj))) & livev;
        if (any(stop)) {
            for (std::size_t l = 0; l < L; ++l) {
                if (get(stop, l) != 0) {
                    early[l] = jj < t;
                    set(livev, l, 0);
                    set(bv, l, kFrozen);
                    --n_live;
                }
            }
        }
    };

    std::int64_t j = 0;
    while (j < t && n_live > 0) {
        // Shared band schedule — data-independent, so one instance
        // serves every lane (this is what length-homogeneous bucketing
        // buys: zero lane divergence).
        if (w_hi < words - 1 &&
            (j + d + 2) / 64 > static_cast<std::int64_t>(w_hi)) {
            ++w_hi;
            const std::int64_t p_old = 64 * static_cast<std::int64_t>(w_hi);
            const std::int64_t p_new = std::min<std::int64_t>(
                64 * static_cast<std::int64_t>(w_hi + 1), m);
            // Frozen lanes stay parked at the sentinel.
            bv = bv + select(livev, sbc(p_new - p_old), S{});
        }
        while (w_lo < w_hi &&
               j + 1 >=
                   64 * static_cast<std::int64_t>(w_lo + 1) - m + t + d + 2) {
            ++w_lo;
        }
        std::int64_t seg_end = t;
        if (w_hi < words - 1) {
            seg_end = std::min(
                seg_end, 64 * static_cast<std::int64_t>(w_hi + 1) - d - 2);
        }
        if (w_lo < w_hi) {
            seg_end = std::min(
                seg_end,
                64 * static_cast<std::int64_t>(w_lo + 1) - m + t + d + 1);
        }

        const bool at_bottom = w_hi == words - 1;
        const unsigned bshift =
            at_bottom ? static_cast<unsigned>((m_ - 1) % 64) : 63u;
        const std::uint64_t ph_in = w_lo == 0 ? 0ULL : 1ULL;

        if (w_lo == w_hi) {
            // Single-word band (the bulk of every scan): the classic
            // one-word Myers step across lanes. Peq of this word is
            // four broadcast constants, so the per-lane symbol lookup
            // is a three-blend chain instead of a gather.
            const std::size_t w = w_lo;
            const U validv = ubc(at_bottom ? top_mask_ : ~0ULL);
            const U p0 = ubc(peq[0 * words + w]);
            const U p1 = ubc(peq[1 * words + w]);
            const U p2 = ubc(peq[2 * words + w]);
            const U p3 = ubc(peq[3 * words + w]);
            const U onev = ubc(1);
            const U twov = ubc(2);
            const U phinv = ubc(ph_in);
            U vpw = vp[w];
            U vnw = vn[w];
            for (; j < seg_end && n_live > 0; ++j) {
                const U sym = symbols(j);
                const U eq =
                    select(sym == U{}, p0,
                           select(sym == onev, p1,
                                  select(sym == twov, p2, p3)));
                const U a = eq & vpw;
                const U xh = ((a + vpw) ^ vpw) | eq;
                const U mhb = vpw & xh;
                const U phb = vnw | (~(xh | vpw) & validv);
                bv = bv + asi((phb >> bshift) & onev) -
                     asi((mhb >> bshift) & onev);
                const U ph = (phb << 1) | phinv;
                const U mh = mhb << 1;
                const U xv = eq | vnw;
                vpw = (mh | ~(xv | ph)) & validv;
                vnw = ph & xv & validv;
                ops += 1;
                if (at_bottom) settle_lanes(j);
            }
            vp[w] = vpw;
            vn[w] = vnw;
        } else {
            // Multi-word band: the generic carry-chained step of
            // best_in_bounded, word-major over lane vectors.
            const U onev = ubc(1);
            const U twov = ubc(2);
            const U phinv = ubc(ph_in);
            for (; j < seg_end && n_live > 0; ++j) {
                const U sym = symbols(j);
                const S is0 = sym == U{};
                const S is1 = sym == onev;
                const S is2 = sym == twov;
                U eq[kMaxWords];
                U xh[kMaxWords];
                U ph[kMaxWords];
                U mh[kMaxWords];
                S carry = S{}; // ~0 in lanes whose add carried out
                for (std::size_t w = w_lo; w <= w_hi; ++w) {
                    eq[w] =
                        select(is0, ubc(peq[0 * words + w]),
                               select(is1, ubc(peq[1 * words + w]),
                                      select(is2, ubc(peq[2 * words + w]),
                                             ubc(peq[3 * words + w]))));
                    const U a = eq[w] & vp[w];
                    const U sum_lo = a + vp[w];
                    const S c1 = sum_lo < a;
                    // carry is 0 or ~0; subtracting ~0 adds the 1.
                    const U sum = sum_lo - asu(carry);
                    const S c2 = sum < sum_lo;
                    carry = c1 | c2;
                    xh[w] = (sum ^ vp[w]) | eq[w];
                }
                for (std::size_t w = w_lo; w <= w_hi; ++w) {
                    const U validv = ubc(w == words - 1 ? top_mask_ : ~0ULL);
                    ph[w] = vn[w] | (~(xh[w] | vp[w]) & validv);
                    mh[w] = vp[w] & xh[w];
                }
                bv = bv + asi((ph[w_hi] >> bshift) & onev) -
                     asi((mh[w_hi] >> bshift) & onev);
                U ph_c = phinv;
                U mh_c = U{};
                for (std::size_t w = w_lo; w <= w_hi; ++w) {
                    const U ph_next = ph[w] >> 63;
                    const U mh_next = mh[w] >> 63;
                    ph[w] = (ph[w] << 1) | ph_c;
                    mh[w] = (mh[w] << 1) | mh_c;
                    ph_c = ph_next;
                    mh_c = mh_next;
                }
                for (std::size_t w = w_lo; w <= w_hi; ++w) {
                    const U validv = ubc(w == words - 1 ? top_mask_ : ~0ULL);
                    const U xv = eq[w] | vn[w];
                    vp[w] = (mh[w] | ~(xv | ph[w])) & validv;
                    vn[w] = ph[w] & xv & validv;
                }
                ops += w_hi - w_lo + 1;
                if (at_bottom) settle_lanes(j);
            }
        }
    }

    for (std::size_t l = 0; l < count; ++l) {
        out[l] = {static_cast<std::uint32_t>(get(best_dv, l)),
                  static_cast<std::uint32_t>(get(best_ev, l)), early[l]};
    }
    last_word_ops_ = ops;
}

} // namespace repute::align
