// Tests for the virtual-CUDA device-memory capacity model: footprint
// accounting, the exact-capacity OOM boundary, and OOM as a recorded
// validity outcome of a measured cell rather than a crash.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_util/harness.hpp"
#include "core/registry.hpp"
#include "vcuda/device_spec.hpp"
#include "vcuda/sim.hpp"

namespace indigo::vcuda {
namespace {

DeviceSpec tiny_device(std::uint64_t memory_bytes) {
  DeviceSpec s = rtx3090_like();
  s.name = "tiny";
  s.memory_bytes = memory_bytes;
  return s;
}

TEST(VcudaCapacity, FootprintChargesPagesPlusGuardAndRewrapIsFree) {
  std::vector<std::uint32_t> a(1, 0), b(1025, 0);
  Device dev(rtx3090_like());
  EXPECT_EQ(dev.modeled_footprint_bytes(), 0u);
  dev.array(std::span<std::uint32_t>(a));  // 4 B: one data page + guard
  EXPECT_EQ(dev.modeled_footprint_bytes(), 8192u);
  dev.array(std::span<std::uint32_t>(b));  // 4100 B: two data pages + guard
  EXPECT_EQ(dev.modeled_footprint_bytes(), 8192u + 12288u);
  dev.array(std::span<std::uint32_t>(a));  // already wrapped: no new charge
  EXPECT_EQ(dev.modeled_footprint_bytes(), 8192u + 12288u);
  EXPECT_GE(peak_modeled_footprint_bytes(), dev.modeled_footprint_bytes());
}

TEST(VcudaCapacity, ExactCapacityAcceptedOneByteOverRejected) {
  // One 4096-byte buffer is charged one data page + one guard page = 8192.
  std::vector<std::uint32_t> buf(1024, 0);
  {
    Device dev(tiny_device(8192));
    EXPECT_NO_THROW(dev.array(std::span<std::uint32_t>(buf)));
    EXPECT_EQ(dev.modeled_footprint_bytes(), 8192u);
  }
  {
    // 4097 bytes spills to a second data page: 12288 > 8192 must throw.
    std::vector<std::byte> big(4097);
    Device dev(tiny_device(8192));
    EXPECT_THROW(dev.array(std::span<std::byte>(big)), DeviceOomError);
    EXPECT_EQ(dev.modeled_footprint_bytes(), 0u);  // rejected wrap not charged
  }
}

TEST(VcudaCapacity, OomCarriesFootprintAndDeterministicMessage) {
  std::vector<std::uint32_t> a(1024, 0), b(1024, 0);
  Device dev(tiny_device(8192));
  dev.array(std::span<std::uint32_t>(a));
  try {
    dev.array(std::span<std::uint32_t>(b));
    FAIL() << "second distinct buffer must exceed the 8192-byte capacity";
  } catch (const DeviceOomError& e) {
    EXPECT_EQ(e.requested_bytes(), 4096u);
    EXPECT_EQ(e.footprint_bytes(), 16384u);
    EXPECT_EQ(e.capacity_bytes(), 8192u);
    EXPECT_TRUE(std::string(e.what()).starts_with("device OOM:"))
        << e.what();
  }
  // Rewrapping the *same* buffer is free (it already has a virtual base).
  EXPECT_NO_THROW(dev.array(std::span<std::uint32_t>(a)));
}

class VcudaCapacityHarness : public testing::Test {
 protected:
  void SetUp() override {
    setenv("REPRO_SCALE", "0", 1);
    setenv("REPRO_CACHE", "", 1);  // in-memory store
  }
  void TearDown() override {
    unsetenv("REPRO_CACHE");
    unsetenv("REPRO_SCALE");
  }
};

TEST_F(VcudaCapacityHarness, OomRecordedAsValidityOutcomeNotCrash) {
  bench::Harness h;
  const auto cuda = Registry::instance().select(Model::Cuda, Algorithm::BFS);
  ASSERT_FALSE(cuda.empty());
  // 8 KiB of modeled memory cannot hold a CSR graph plus working buffers.
  const DeviceSpec tiny = tiny_device(8192);
  const Measurement m = h.measure_one(*cuda.front(), h.graphs()[0], &tiny, 1);
  EXPECT_FALSE(m.verified);
  ASSERT_EQ(m.metrics.count("validity.oom"), 1u);
  EXPECT_EQ(m.metrics.at("validity.oom"), 1.0);
  EXPECT_GT(m.metrics.at("validity.oom_footprint_bytes"), 8192.0);
  // Deterministic: the same cell OOMs with the identical modeled footprint.
  const Measurement m2 = h.measure_one(*cuda.front(), h.graphs()[0], &tiny, 1);
  EXPECT_EQ(m.metrics.at("validity.oom_footprint_bytes"),
            m2.metrics.at("validity.oom_footprint_bytes"));
}

}  // namespace
}  // namespace indigo::vcuda
