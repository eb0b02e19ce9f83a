// Heap allocations of warm candidate evaluations: none.
//
// This binary replaces the global operator new with a counting one, so it
// stays apart from the other test binaries.  Each case commits a few random
// vectors, warms one scratch up with the exact calls it then measures, and
// requires the measured calls to allocate nothing: every buffer an
// evaluation writes lives in the caller's FaultSimScratch and keeps its
// capacity between calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "netlist/circuit.h"
#include "sim/logic.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_alloc_nothrow(std::size_t size, std::size_t align) noexcept {
  try {
    return counted_alloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
}  // namespace

// Every replaceable form, so no allocation bypasses the counter and every
// pointer goes from malloc to free (sanitizers check that pairing).  None is
// inlined: gcc would otherwise pair the malloc or free it sees at an inlined
// call site with the other operator and warn (-Wmismatched-new-delete).
using std::align_val_t;
using std::nothrow_t;
using std::size_t;
[[gnu::noinline]] void* operator new(size_t n) { return counted_alloc(n, 0); }
[[gnu::noinline]] void* operator new[](size_t n) {
  return counted_alloc(n, 0);
}
[[gnu::noinline]] void* operator new(size_t n, align_val_t a) {
  return counted_alloc(n, static_cast<size_t>(a));
}
[[gnu::noinline]] void* operator new[](size_t n, align_val_t a) {
  return counted_alloc(n, static_cast<size_t>(a));
}
[[gnu::noinline]] void* operator new(size_t n, const nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, 0);
}
[[gnu::noinline]] void* operator new[](size_t n, const nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, 0);
}
[[gnu::noinline]] void* operator new(size_t n, align_val_t a,
                                     const nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<size_t>(a));
}
[[gnu::noinline]] void* operator new[](size_t n, align_val_t a,
                                       const nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<size_t>(a));
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, size_t, align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t,
                                         align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, align_val_t,
                                       const nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, align_val_t,
                                         const nothrow_t&) noexcept {
  std::free(p);
}

namespace gatest {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TestVector random_vector(const Circuit& c, Rng& rng) {
  TestVector v(c.num_inputs());
  for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
  return v;
}

class FsimAllocTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FsimAllocTest, WarmEvaluationsAllocateNothing) {
  const Circuit c = benchmark_circuit(GetParam());
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  Rng rng(17);
  for (int i = 0; i < 10; ++i) sim.apply_vector(random_vector(c, rng), i);
  TestSequence seq(8);
  for (TestVector& sv : seq) sv = random_vector(c, rng);
  const TestVector v = random_vector(c, rng);

  FaultSimScratch scratch;
  const auto score_sequence = [&] { sim.evaluate_sequence(seq, scratch); };
  const auto score_vector = [&] { sim.evaluate_vector(v, scratch); };
  const auto score_good = [&] { sim.evaluate_vector_good_only(v, scratch); };
  // Warm-up.  The measured calls must do real work, or zero proves nothing.
  const FaultSimStats warm = sim.evaluate_sequence(seq, scratch);
  ASSERT_GT(warm.faults_simulated, 0u);
  ASSERT_GT(warm.faulty_events, 0u);
  score_vector();
  score_good();

  EXPECT_EQ(allocations_of(score_sequence), 0u) << "evaluate_sequence";
  EXPECT_EQ(allocations_of(score_vector), 0u) << "evaluate_vector";
  EXPECT_EQ(allocations_of(score_good), 0u) << "evaluate_vector_good_only";
  // The counter itself works: a cold scratch is sized on its first use.
  FaultSimScratch cold;
  EXPECT_GT(allocations_of([&] { sim.evaluate_vector(v, cold); }), 0u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, FsimAllocTest,
                         ::testing::Values("s298", "s526"));

}  // namespace
}  // namespace gatest
