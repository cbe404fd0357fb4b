// ASCII timeline renderer: draws which object occupied the server->client
// byte stream over a window, one lane per response instance — the visual
// form of the paper's Figures 2-4 and 6.
//
// Lanes are labelled with the object id; '#' marks bytes of that instance,
// '.' marks the instance's span where other instances' bytes sit (the
// interleaving the DoM metric measures).
#pragma once

#include <string>

#include "h2priv/analysis/ground_truth.hpp"

namespace h2priv::analysis {

/// Cap on the number of lanes a timeline draws (most-overlapping first wins;
/// TimelineOptions::focus_object lanes always survive it).
inline constexpr std::size_t kTimelineMaxLanes = 16;

struct TimelineOptions {
  /// Byte-stream window to render; end 0 = up to the last recorded byte.
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// Character-cell width of the rendered lanes.
  int width = 96;
  /// Only lanes whose instances overlap the window and carry at least this
  /// many bytes are drawn.
  std::uint64_t min_bytes = 1;
  /// Instances of this object are always drawn, regardless of the lane cap
  /// (0 = no focus object).
  web::ObjectId focus_object = 0;
};

/// Renders the instances of `truth` over the window as a multi-lane chart.
[[nodiscard]] std::string render_timeline(const GroundTruth& truth,
                                          const TimelineOptions& options = {});

/// Convenience: a window centred on one object's primary serving (padding
/// its span by `margin_fraction` on both sides).
[[nodiscard]] std::string render_around_object(const GroundTruth& truth,
                                               web::ObjectId object,
                                               double margin_fraction = 0.35,
                                               int width = 96);

/// Like render_around_object, but centred on the object's LAST complete
/// fully-serialized serving (the post-reset clean-slate copy of Fig. 6);
/// falls back to the primary serving if no such copy exists.
[[nodiscard]] std::string render_around_serialized_copy(const GroundTruth& truth,
                                                        web::ObjectId object,
                                                        double margin_fraction = 2.0,
                                                        int width = 96);

}  // namespace h2priv::analysis
