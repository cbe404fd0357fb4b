#include "h2priv/analysis/ground_truth.hpp"

#include <algorithm>
#include <stdexcept>

namespace h2priv::analysis {

std::uint64_t ResponseInstance::data_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ByteInterval& iv : data) total += iv.size();
  return total;
}

std::optional<ByteInterval> ResponseInstance::span() const noexcept {
  if (data.empty()) return std::nullopt;
  ByteInterval s{data.front().begin, data.front().end};
  for (const ByteInterval& iv : data) {
    s.begin = std::min(s.begin, iv.begin);
    s.end = std::max(s.end, iv.end);
  }
  return s;
}

GroundTruth::GroundTruth(std::vector<ResponseInstance> instances)
    : instances_(std::move(instances)) {
  for (std::size_t i = 0; i < instances_.size(); ++i) instances_[i].id = i + 1;
}

InstanceId GroundTruth::register_instance(web::ObjectId object, std::uint32_t stream_id,
                                          bool duplicate) {
  ResponseInstance inst;
  inst.id = instances_.size() + 1;
  inst.object_id = object;
  inst.stream_id = stream_id;
  inst.duplicate = duplicate;
  instances_.push_back(std::move(inst));
  return instances_.back().id;
}

const ResponseInstance& GroundTruth::instance(InstanceId id) const {
  if (id == 0 || id > instances_.size()) {
    throw std::out_of_range("GroundTruth: bad instance id " + std::to_string(id));
  }
  return instances_[id - 1];
}

void GroundTruth::record_data(InstanceId id, h2::WireSpan span) {
  if (span.empty()) return;
  instances_.at(id - 1).data.push_back(ByteInterval{span.begin, span.end});
}

void GroundTruth::record_headers(InstanceId id, h2::WireSpan span) {
  if (span.empty()) return;
  instances_.at(id - 1).headers.push_back(ByteInterval{span.begin, span.end});
}

void GroundTruth::mark_complete(InstanceId id) {
  instances_.at(id - 1).complete = true;
}

const ResponseInstance* GroundTruth::primary_instance(web::ObjectId object) const {
  for (const ResponseInstance& inst : instances_) {
    if (inst.object_id == object && !inst.duplicate) return &inst;
  }
  return nullptr;
}

std::vector<const ResponseInstance*> GroundTruth::instances_of(
    web::ObjectId object) const {
  std::vector<const ResponseInstance*> out;
  for (const ResponseInstance& inst : instances_) {
    if (inst.object_id == object) out.push_back(&inst);
  }
  return out;
}

double GroundTruth::degree_of_multiplexing(InstanceId id) const {
  return MultiplexingIndex(*this).degree_of_multiplexing(id);
}

std::optional<double> GroundTruth::object_dom(web::ObjectId object) const {
  return MultiplexingIndex(*this).object_dom(object);
}

MultiplexingIndex::MultiplexingIndex(const GroundTruth& truth) : truth_(truth) {
  spans_.reserve(truth.instances().size());
  for (const ResponseInstance& inst : truth.instances()) {
    if (const auto s = inst.span()) spans_.push_back(Span{*s, inst.id});
  }
  std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
    return a.bytes.begin < b.bytes.begin;
  });
}

double MultiplexingIndex::degree_of_multiplexing(InstanceId id) const {
  const ResponseInstance& self = truth_.instance(id);
  const std::uint64_t total = self.data_bytes();
  if (total == 0) return 0.0;

  // Bytes of `self` covered by the union of the other instances' spans. The
  // spans merge in start order (touching ones join); each maximal run is
  // charged as it closes.
  std::uint64_t covered = 0;
  const auto charge = [&](const ByteInterval& run) {
    for (const ByteInterval& iv : self.data) {
      const std::uint64_t lo = std::max(iv.begin, run.begin);
      const std::uint64_t hi = std::min(iv.end, run.end);
      if (hi > lo) covered += hi - lo;
    }
  };
  std::optional<ByteInterval> run;
  for (const Span& s : spans_) {
    if (s.id == id) continue;
    if (run && s.bytes.begin <= run->end) {
      run->end = std::max(run->end, s.bytes.end);
      continue;
    }
    if (run) charge(*run);
    run = s.bytes;
  }
  if (run) charge(*run);
  return static_cast<double>(covered) / static_cast<double>(total);
}

std::optional<double> MultiplexingIndex::object_dom(web::ObjectId object) const {
  const ResponseInstance* primary = truth_.primary_instance(object);
  if (primary == nullptr || primary->data.empty()) return std::nullopt;
  return degree_of_multiplexing(primary->id);
}

bool MultiplexingIndex::any_serialized_instance(web::ObjectId object) const {
  for (const ResponseInstance& inst : truth_.instances()) {
    if (inst.object_id == object && inst.complete && !inst.data.empty() &&
        degree_of_multiplexing(inst.id) == 0.0) {
      return true;
    }
  }
  return false;
}

}  // namespace h2priv::analysis
