#include "h2priv/analysis/timeline.hpp"

#include <gtest/gtest.h>

namespace h2priv::analysis {
namespace {

GroundTruth make_truth() {
  GroundTruth gt;
  const InstanceId a = gt.register_instance(1, 1, false);
  gt.record_data(a, h2::WireSpan{0, 500});
  gt.record_data(a, h2::WireSpan{1'000, 1'500});
  gt.mark_complete(a);
  const InstanceId b = gt.register_instance(2, 3, true);
  gt.record_data(b, h2::WireSpan{500, 1'000});
  return gt;
}

TEST(Timeline, RendersOneLanePerInstance) {
  const GroundTruth gt = make_truth();
  const std::string out = render_timeline(gt);
  EXPECT_NE(out.find("obj   1"), std::string::npos);
  EXPECT_NE(out.find("obj   2*"), std::string::npos) << "duplicate marker";
  EXPECT_NE(out.find("(part)"), std::string::npos) << "incomplete marker";
  EXPECT_NE(out.find("DoM"), std::string::npos);
}

TEST(Timeline, MarksOwnAndForeignBytes) {
  const GroundTruth gt = make_truth();
  TimelineOptions opt;
  opt.width = 30;
  const std::string out = render_timeline(gt, opt);
  // Lane 1 has a '.' hole in the middle (where instance 2's bytes sit).
  const std::size_t lane1 = out.find("obj   1");
  ASSERT_NE(lane1, std::string::npos);
  const std::string row = out.substr(lane1, out.find('\n', lane1) - lane1);
  EXPECT_NE(row.find('#'), std::string::npos);
  EXPECT_NE(row.find('.'), std::string::npos);
}

TEST(Timeline, EmptyWindowHandled) {
  GroundTruth gt;
  EXPECT_EQ(render_timeline(gt), "(empty window)\n");
}

TEST(Timeline, WindowClipsLanes) {
  const GroundTruth gt = make_truth();
  TimelineOptions opt;
  opt.begin = 0;
  opt.end = 400;  // instance 2 entirely outside
  const std::string out = render_timeline(gt, opt);
  EXPECT_NE(out.find("obj   1"), std::string::npos);
  EXPECT_EQ(out.find("obj   2"), std::string::npos);
}

TEST(Timeline, MaxLanesKeepsFocusObject) {
  GroundTruth gt;
  // More big instances than the lane cap, one tiny focus object.
  constexpr int kBig = static_cast<int>(kTimelineMaxLanes) + 4;
  for (int i = 0; i < kBig; ++i) {
    const InstanceId id =
        gt.register_instance(static_cast<web::ObjectId>(100 + i), 1, false);
    gt.record_data(id, h2::WireSpan{static_cast<std::uint64_t>(i) * 10'000,
                                    static_cast<std::uint64_t>(i) * 10'000 + 9'000});
    gt.mark_complete(id);
  }
  const InstanceId tiny = gt.register_instance(7, 99, false);
  gt.record_data(tiny, h2::WireSpan{50'000, 50'200});
  gt.mark_complete(tiny);

  TimelineOptions opt;
  opt.focus_object = 7;
  opt.min_bytes = 1;
  const std::string out = render_timeline(gt, opt);
  EXPECT_NE(out.find("obj   7"), std::string::npos)
      << "focus object survives the lane cap";
  std::size_t lanes = 0;
  for (std::size_t at = out.find("\nobj "); at != std::string::npos;
       at = out.find("\nobj ", at + 1)) {
    ++lanes;
  }
  EXPECT_EQ(lanes, kTimelineMaxLanes);
}

TEST(Timeline, RenderAroundObjectCentersWindow) {
  const GroundTruth gt = make_truth();
  const std::string out = render_around_object(gt, 1, 0.2, 40);
  EXPECT_NE(out.find("obj   1"), std::string::npos);
  EXPECT_EQ(render_around_object(gt, 42), "(object never served)\n");
}

TEST(Timeline, RenderAroundSerializedCopyPrefersCleanCopy) {
  GroundTruth gt;
  // Primary of object 5 interleaved with another object...
  const InstanceId primary = gt.register_instance(5, 1, false);
  gt.record_data(primary, h2::WireSpan{0, 400});
  gt.record_data(primary, h2::WireSpan{800, 1'200});
  gt.mark_complete(primary);
  const InstanceId other = gt.register_instance(9, 3, false);
  gt.record_data(other, h2::WireSpan{400, 800});
  gt.mark_complete(other);
  // ... and a clean copy far away.
  const InstanceId copy = gt.register_instance(5, 11, true);
  gt.record_data(copy, h2::WireSpan{100'000, 101'200});
  gt.mark_complete(copy);

  const std::string out = render_around_serialized_copy(gt, 5);
  EXPECT_NE(out.find("97600"), std::string::npos)
      << "window centred near the clean copy at offset 100000, margin 2x";
}

}  // namespace
}  // namespace h2priv::analysis
