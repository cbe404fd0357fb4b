// Degree-of-multiplexing metric on synthetic wire intervals, and
// MultiplexingIndex against a byte-by-byte reference on random instance sets.
#include "h2priv/analysis/ground_truth.hpp"

#include <gtest/gtest.h>

#include "h2priv/sim/rng.hpp"

namespace h2priv::analysis {
namespace {

InstanceId add_instance(GroundTruth& gt, web::ObjectId obj,
                        std::initializer_list<std::pair<std::uint64_t, std::uint64_t>>
                            spans,
                        bool dup = false, bool complete = true) {
  const InstanceId id = gt.register_instance(obj, obj * 2 + 1, dup);
  for (const auto& [b, e] : spans) gt.record_data(id, h2::WireSpan{b, e});
  if (complete) gt.mark_complete(id);
  return id;
}

TEST(GroundTruth, SerializedObjectsHaveZeroDom) {
  GroundTruth gt;
  const InstanceId a = add_instance(gt, 1, {{0, 1'000}});
  const InstanceId b = add_instance(gt, 2, {{1'000, 2'500}});
  EXPECT_EQ(gt.degree_of_multiplexing(a), 0.0);
  EXPECT_EQ(gt.degree_of_multiplexing(b), 0.0);
}

TEST(GroundTruth, FullyNestedInstanceHasDomOne) {
  GroundTruth gt;
  add_instance(gt, 1, {{0, 400}, {600, 1'000}});
  const InstanceId inner = add_instance(gt, 2, {{400, 600}});
  EXPECT_EQ(gt.degree_of_multiplexing(inner), 1.0);
}

TEST(GroundTruth, InterleavedPairBothHighDom) {
  GroundTruth gt;
  // A and B alternate chunks: every byte of each lies within the other's span.
  const InstanceId a = add_instance(gt, 1, {{0, 100}, {200, 300}, {400, 500}});
  const InstanceId b = add_instance(gt, 2, {{100, 200}, {300, 400}});
  // Only A's middle chunk lies inside B's span [100,400).
  EXPECT_DOUBLE_EQ(gt.degree_of_multiplexing(a), 1.0 / 3.0);
  EXPECT_EQ(gt.degree_of_multiplexing(b), 1.0);
}

TEST(GroundTruth, PartialOverlapIsFractional) {
  GroundTruth gt;
  // A occupies [0,1000); B's span covers [800,1600): 200 of A's 1000 bytes.
  const InstanceId a = add_instance(gt, 1, {{0, 1'000}});
  add_instance(gt, 2, {{800, 900}, {1'500, 1'600}});
  EXPECT_DOUBLE_EQ(gt.degree_of_multiplexing(a), 0.2);
}

TEST(GroundTruth, DuplicateCopiesCountAsForeign) {
  GroundTruth gt;
  // A copy of the same object interleaving still destroys the boundary: its
  // span [450,650) covers the original's bytes in [450,500).
  const InstanceId original = add_instance(gt, 1, {{0, 500}, {700, 1'000}});
  add_instance(gt, 1, {{450, 650}}, /*dup=*/true);
  EXPECT_DOUBLE_EQ(gt.degree_of_multiplexing(original), 50.0 / 800.0);
}

TEST(GroundTruth, EmptyInstanceHasZeroDom) {
  GroundTruth gt;
  const InstanceId a = gt.register_instance(1, 1, false);
  EXPECT_EQ(gt.degree_of_multiplexing(a), 0.0);
}

TEST(GroundTruth, PrimaryInstanceSkipsDuplicates) {
  GroundTruth gt;
  add_instance(gt, 1, {{0, 100}}, /*dup=*/true);
  const InstanceId primary = add_instance(gt, 1, {{100, 200}}, /*dup=*/false);
  ASSERT_NE(gt.primary_instance(1), nullptr);
  EXPECT_EQ(gt.primary_instance(1)->id, primary);
  EXPECT_EQ(gt.primary_instance(2), nullptr);
}

TEST(GroundTruth, ObjectDomUsesPrimary) {
  GroundTruth gt;
  add_instance(gt, 1, {{0, 1'000}});
  add_instance(gt, 2, {{2'000, 3'000}});
  EXPECT_EQ(gt.object_dom(1), 0.0);
  EXPECT_EQ(gt.object_dom(99), std::nullopt);
}

TEST(GroundTruth, AnySerializedInstanceChecksCopies) {
  GroundTruth gt;
  // Primary is interleaved with B (B's span covers part of it); a later
  // duplicate copy is clean.
  add_instance(gt, 1, {{0, 100}, {200, 300}});
  add_instance(gt, 2, {{50, 250}});
  EXPECT_FALSE(MultiplexingIndex(gt).any_serialized_instance(1));
  add_instance(gt, 1, {{5'000, 5'100}}, /*dup=*/true);
  EXPECT_TRUE(MultiplexingIndex(gt).any_serialized_instance(1));
}

TEST(GroundTruth, IncompleteSerializedCopyDoesNotCount) {
  GroundTruth gt;
  add_instance(gt, 1, {{0, 100}, {200, 300}});
  add_instance(gt, 2, {{50, 250}});
  add_instance(gt, 1, {{5'000, 5'100}}, /*dup=*/true, /*complete=*/false);
  EXPECT_FALSE(MultiplexingIndex(gt).any_serialized_instance(1));
}

TEST(GroundTruth, InstanceAccountingAndSpan) {
  GroundTruth gt;
  const InstanceId a = add_instance(gt, 1, {{10, 20}, {50, 80}});
  const ResponseInstance& inst = gt.instance(a);
  EXPECT_EQ(inst.data_bytes(), 40u);
  ASSERT_TRUE(inst.span().has_value());
  EXPECT_EQ(inst.span()->begin, 10u);
  EXPECT_EQ(inst.span()->end, 80u);
  EXPECT_THROW((void)gt.instance(0), std::out_of_range);
  EXPECT_THROW((void)gt.instance(99), std::out_of_range);
}

TEST(GroundTruth, HeadersRecordedSeparately) {
  GroundTruth gt;
  const InstanceId a = gt.register_instance(1, 1, false);
  gt.record_headers(a, h2::WireSpan{0, 50});
  gt.record_data(a, h2::WireSpan{50, 150});
  EXPECT_EQ(gt.instance(a).headers.size(), 1u);
  EXPECT_EQ(gt.instance(a).data_bytes(), 100u)
      << "headers must not count toward body bytes / DoM";
}

TEST(GroundTruth, ThreeWayInterleaving) {
  GroundTruth gt;
  const InstanceId a = add_instance(gt, 1, {{0, 100}, {300, 400}});
  const InstanceId b = add_instance(gt, 2, {{100, 200}, {400, 500}});
  const InstanceId c = add_instance(gt, 3, {{200, 300}, {500, 600}});
  EXPECT_GT(gt.degree_of_multiplexing(a), 0.0);
  EXPECT_EQ(gt.degree_of_multiplexing(b), 1.0);
  EXPECT_GT(gt.degree_of_multiplexing(c), 0.0);
}

/// The DoM definition, byte by byte: a DATA byte of `self` counts as covered
/// when it lies in the span of any other instance that carried data.
double brute_force_dom(const GroundTruth& gt, InstanceId self_id) {
  const ResponseInstance& self = gt.instance(self_id);
  std::uint64_t total = 0, covered = 0;
  for (const ByteInterval& iv : self.data) {
    for (std::uint64_t at = iv.begin; at < iv.end; ++at) {
      ++total;
      for (const ResponseInstance& other : gt.instances()) {
        const auto span = other.span();
        if (other.id != self_id && span && span->begin <= at && at < span->end) {
          ++covered;
          break;
        }
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(total);
}

/// Checks every query of a MultiplexingIndex (and GroundTruth's delegates)
/// against the byte-by-byte reference, bit for bit.
void expect_index_matches_reference(const GroundTruth& gt, const std::string& ctx) {
  const MultiplexingIndex index(gt);
  for (const ResponseInstance& inst : gt.instances()) {
    const double want = brute_force_dom(gt, inst.id);
    EXPECT_EQ(index.degree_of_multiplexing(inst.id), want) << ctx << " id " << inst.id;
    EXPECT_EQ(gt.degree_of_multiplexing(inst.id), want) << ctx << " id " << inst.id;
  }
  for (web::ObjectId object = 0; object < 4; ++object) {
    const ResponseInstance* primary = nullptr;
    bool any_serialized = false;
    for (const ResponseInstance& inst : gt.instances()) {
      if (inst.object_id != object) continue;
      if (primary == nullptr && !inst.duplicate) primary = &inst;
      if (inst.complete && !inst.data.empty() && brute_force_dom(gt, inst.id) == 0.0) {
        any_serialized = true;
      }
    }
    std::optional<double> dom;
    if (primary != nullptr && !primary->data.empty()) {
      dom = brute_force_dom(gt, primary->id);
    }
    EXPECT_EQ(index.object_dom(object), dom) << ctx << " object " << object;
    EXPECT_EQ(gt.object_dom(object), dom) << ctx << " object " << object;
    EXPECT_EQ(index.any_serialized_instance(object), any_serialized)
        << ctx << " object " << object;
  }
}

TEST(MultiplexingIndex, EdgeCasesMatchTheReference) {
  GroundTruth empty;
  expect_index_matches_reference(empty, "no instances");
  EXPECT_EQ(MultiplexingIndex(empty).object_dom(1), std::nullopt);

  GroundTruth no_data;
  no_data.register_instance(1, 1, false);
  no_data.register_instance(2, 3, false);
  expect_index_matches_reference(no_data, "instances without data");

  GroundTruth one;
  add_instance(one, 1, {{0, 100}, {150, 200}});
  expect_index_matches_reference(one, "one instance");
  EXPECT_EQ(MultiplexingIndex(one).object_dom(1), 0.0);

  GroundTruth identical;
  add_instance(identical, 1, {{0, 50}, {80, 100}});
  add_instance(identical, 2, {{0, 50}, {80, 100}});
  expect_index_matches_reference(identical, "identical spans");
  EXPECT_EQ(MultiplexingIndex(identical).object_dom(1), 1.0);

  GroundTruth touching;
  add_instance(touching, 1, {{0, 10}});
  add_instance(touching, 2, {{10, 20}, {20, 30}});
  add_instance(touching, 3, {{30, 40}});
  add_instance(touching, 1, {{40, 45}, {50, 60}}, /*dup=*/true);
  add_instance(touching, 2, {{45, 50}}, /*dup=*/true);
  expect_index_matches_reference(touching, "touching intervals");
}

TEST(MultiplexingIndex, RandomInstanceSetsMatchTheReference) {
  sim::Rng rng(21);
  for (int round = 0; round < 300; ++round) {
    GroundTruth gt;
    const auto n = rng.uniform_int(0, 7);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto object = static_cast<web::ObjectId>(rng.uniform_int(0, 3));
      const InstanceId id = gt.register_instance(object, 1, rng.chance(0.3));
      if (i > 0 && rng.chance(0.15)) {
        // An identical copy of the previous instance's data.
        for (const ByteInterval& iv : gt.instance(id - 1).data) {
          gt.record_data(id, h2::WireSpan{iv.begin, iv.end});
        }
      } else {
        // 0-4 intervals in [0, 120); some touch the one before.
        auto at = static_cast<std::uint64_t>(rng.uniform_int(0, 60));
        for (std::int64_t k = rng.uniform_int(0, 4); k > 0; --k) {
          if (!rng.chance(0.3)) at += static_cast<std::uint64_t>(rng.uniform_int(0, 20));
          const auto len = static_cast<std::uint64_t>(rng.uniform_int(1, 15));
          gt.record_data(id, h2::WireSpan{at, at + len});
          at += len;
        }
      }
      if (rng.chance(0.8)) gt.mark_complete(id);
    }
    expect_index_matches_reference(gt, "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace h2priv::analysis
