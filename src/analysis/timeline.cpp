#include "h2priv/analysis/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace h2priv::analysis {

namespace {

struct Lane {
  const ResponseInstance* instance;
  std::uint64_t overlap;
};

char cell_for(const ResponseInstance& inst, std::uint64_t lo, std::uint64_t hi) {
  // '#' if any of the instance's bytes fall in [lo,hi); '.' if the cell lies
  // inside the instance's span but carries only foreign bytes.
  bool in_span = false;
  if (const auto span = inst.span()) {
    in_span = span->begin < hi && span->end > lo;
  }
  for (const ByteInterval& iv : inst.data) {
    if (iv.begin < hi && iv.end > lo) return '#';
  }
  return in_span ? '.' : ' ';
}

}  // namespace

std::string render_timeline(const GroundTruth& truth, const TimelineOptions& options) {
  std::uint64_t window_end = options.end;
  if (window_end == 0) {
    for (const auto& inst : truth.instances()) {
      if (const auto span = inst.span()) window_end = std::max(window_end, span->end);
    }
  }
  if (window_end <= options.begin) return "(empty window)\n";
  const std::uint64_t window_begin = options.begin;
  const std::uint64_t total = window_end - window_begin;

  // Pick the lanes: instances overlapping the window, biggest overlap first.
  std::vector<Lane> lanes;
  for (const auto& inst : truth.instances()) {
    std::uint64_t overlap = 0;
    for (const ByteInterval& iv : inst.data) {
      const std::uint64_t lo = std::max(iv.begin, window_begin);
      const std::uint64_t hi = std::min(iv.end, window_end);
      if (hi > lo) overlap += hi - lo;
    }
    if (overlap >= options.min_bytes) lanes.push_back({&inst, overlap});
  }
  std::sort(lanes.begin(), lanes.end(), [&](const Lane& a, const Lane& b) {
    const bool fa = a.instance->object_id == options.focus_object;
    const bool fb = b.instance->object_id == options.focus_object;
    if (fa != fb) return fa;  // focus lanes survive the cap
    return a.overlap > b.overlap;
  });
  if (lanes.size() > kTimelineMaxLanes) lanes.resize(kTimelineMaxLanes);
  // Draw in first-byte order for readability.
  std::sort(lanes.begin(), lanes.end(), [](const Lane& a, const Lane& b) {
    const auto sa = a.instance->span();
    const auto sb = b.instance->span();
    return (sa ? sa->begin : 0) < (sb ? sb->begin : 0);
  });

  std::string out;
  char header[160];
  std::snprintf(header, sizeof(header),
                "stream bytes [%llu, %llu) — one lane per response instance\n",
                static_cast<unsigned long long>(window_begin),
                static_cast<unsigned long long>(window_end));
  out += header;

  const int width = std::max(options.width, 10);
  for (const Lane& lane : lanes) {
    char label[64];
    std::snprintf(label, sizeof(label), "obj %3u%s %-7s|",
                  lane.instance->object_id, lane.instance->duplicate ? "*" : " ",
                  lane.instance->complete ? "" : "(part)");
    out += label;
    for (int c = 0; c < width; ++c) {
      const auto uc = static_cast<std::uint64_t>(c);
      const auto uw = static_cast<std::uint64_t>(width);
      const std::uint64_t lo = window_begin + total * uc / uw;
      const std::uint64_t hi = window_begin + total * (uc + 1) / uw;
      out += cell_for(*lane.instance, lo, std::max(hi, lo + 1));
    }
    char dom[48];
    std::snprintf(dom, sizeof(dom), "| DoM %.2f\n",
                  truth.degree_of_multiplexing(lane.instance->id));
    out += dom;
  }
  out += "('#' bytes of the lane's object; '.' foreign bytes inside its span; '*' re-requ"
         "est copy)\n";
  return out;
}

std::string render_around_object(const GroundTruth& truth, web::ObjectId object,
                                 double margin_fraction, int width) {
  const ResponseInstance* primary = truth.primary_instance(object);
  // Fall back to any complete instance (e.g. the post-reset copy).
  if (primary == nullptr || !primary->span()) {
    for (const auto* inst : truth.instances_of(object)) {
      if (inst->span()) {
        primary = inst;
        break;
      }
    }
  }
  if (primary == nullptr || !primary->span()) return "(object never served)\n";
  const ByteInterval span = *primary->span();
  const auto margin =
      static_cast<std::uint64_t>(static_cast<double>(span.size()) * margin_fraction);
  TimelineOptions options;
  options.begin = span.begin > margin ? span.begin - margin : 0;
  options.end = span.end + margin;
  options.width = width;
  options.min_bytes = 64;
  options.focus_object = object;
  return render_timeline(truth, options);
}

std::string render_around_serialized_copy(const GroundTruth& truth, web::ObjectId object,
                                           double margin_fraction, int width) {
  const ResponseInstance* chosen = nullptr;
  for (const auto* inst : truth.instances_of(object)) {
    if (inst->complete && inst->span() && truth.degree_of_multiplexing(inst->id) == 0.0) {
      chosen = inst;  // keep the last such copy
    }
  }
  if (chosen == nullptr) return render_around_object(truth, object, margin_fraction,
      width);
  const ByteInterval span = *chosen->span();
  const auto margin =
      static_cast<std::uint64_t>(static_cast<double>(span.size()) * margin_fraction);
  TimelineOptions options;
  options.begin = span.begin > margin ? span.begin - margin : 0;
  options.end = span.end + margin;
  options.width = width;
  options.min_bytes = 64;
  options.focus_object = object;
  return render_timeline(truth, options);
}

}  // namespace h2priv::analysis
