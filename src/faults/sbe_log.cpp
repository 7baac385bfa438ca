#include "faults/sbe_log.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace repro::faults {

SbeLog::SbeLog(std::int32_t total_nodes, std::int32_t total_apps)
    : by_node_(static_cast<std::size_t>(total_nodes)),
      by_app_(static_cast<std::size_t>(total_apps)),
      node_event_ids_(static_cast<std::size_t>(total_nodes)) {
  REPRO_CHECK(total_nodes > 0 && total_apps > 0);
}

void SbeLog::Index::add(Minute t, std::uint32_t count) {
  REPRO_CHECK_MSG(when.empty() || t >= when.back(),
                  "SBE events must be added in time order");
  when.push_back(t);
  cum.push_back((cum.empty() ? 0 : cum.back()) + count);
}

std::uint64_t SbeLog::Index::between(Minute lo, Minute hi) const {
  // Windows that reach before the trace start are truncated at minute 0;
  // a genuinely inverted window is a caller bug, not an empty query.
  lo = std::max<Minute>(lo, 0);
  hi = std::max<Minute>(hi, 0);
  REPRO_CHECK_MSG(lo <= hi, "inverted SBE history window");
  if (when.empty() || lo == hi) return 0;
  const auto first = std::lower_bound(when.begin(), when.end(), lo);
  const auto last = std::lower_bound(when.begin(), when.end(), hi);
  if (first == last) return 0;
  const auto i0 = static_cast<std::size_t>(first - when.begin());
  const auto i1 = static_cast<std::size_t>(last - when.begin());  // exclusive
  const std::uint64_t upto_last = cum[i1 - 1];
  const std::uint64_t before_first = i0 == 0 ? 0 : cum[i0 - 1];
  return upto_last - before_first;
}

void SbeLog::add(const SbeEvent& e) {
  REPRO_CHECK_MSG(e.count > 0, "SbeLog only stores positive observations");
  REPRO_CHECK(e.node >= 0 && e.node < total_nodes());
  REPRO_CHECK(e.app >= 0 && e.app < total_apps());
  const auto id = static_cast<std::uint32_t>(events_.size());
  events_.push_back(e);
  by_node_[static_cast<std::size_t>(e.node)].add(e.end, e.count);
  by_app_[static_cast<std::size_t>(e.app)].add(e.end, e.count);
  global_.add(e.end, e.count);
  node_event_ids_[static_cast<std::size_t>(e.node)].push_back(id);
}

std::uint64_t SbeLog::node_count_between(topo::NodeId node, Minute lo,
                                         Minute hi) const {
  return by_node_.at(static_cast<std::size_t>(node)).between(lo, hi);
}

std::uint64_t SbeLog::app_count_between(workload::AppId app, Minute lo,
                                        Minute hi) const {
  return by_app_.at(static_cast<std::size_t>(app)).between(lo, hi);
}

std::uint64_t SbeLog::global_count_between(Minute lo, Minute hi) const {
  return global_.between(lo, hi);
}

std::uint64_t SbeLog::app_node_count_between(workload::AppId app,
                                             topo::NodeId node, Minute lo,
                                             Minute hi) const {
  const auto& ids = node_event_ids_.at(static_cast<std::size_t>(node));
  // Events per node are in time order; binary search the window, then
  // filter by app (per-node event lists are short).
  auto cmp_lo = [this](std::uint32_t id, Minute t) {
    return events_[id].end < t;
  };
  const auto first = std::lower_bound(ids.begin(), ids.end(), lo, cmp_lo);
  std::uint64_t total = 0;
  for (auto it = first; it != ids.end() && events_[*it].end < hi; ++it) {
    if (events_[*it].app == app) total += events_[*it].count;
  }
  return total;
}

std::vector<char> SbeLog::offender_mask(Minute lo, Minute hi) const {
  std::vector<char> mask(by_node_.size(), 0);
  for (std::size_t n = 0; n < by_node_.size(); ++n) {
    mask[n] = by_node_[n].between(lo, hi) > 0 ? 1 : 0;
  }
  return mask;
}

SbeSanitizeStats sanitize_events(std::vector<SbeEvent>& events,
                                 std::int32_t total_nodes,
                                 std::int32_t total_apps) {
  SbeSanitizeStats stats;
  // Pass 1: per-record validation. Quarantine anything an index would
  // choke on or that reads as a counter artifact; keep the rest.
  std::size_t w = 0;
  for (std::size_t r = 0; r < events.size(); ++r) {
    const SbeEvent& e = events[r];
    if (e.node < 0 || e.node >= total_nodes || e.app < 0 ||
        e.app >= total_apps) {
      ++stats.out_of_range_dropped;
      continue;
    }
    if (e.start < 0 || e.end < e.start) {
      ++stats.bad_interval_dropped;
      continue;
    }
    if (e.count == 0) {
      ++stats.resets_dropped;
      continue;
    }
    if (e.count > kMaxPlausibleSbeCount) {
      ++stats.rollbacks_dropped;
      continue;
    }
    events[w++] = e;
  }
  events.resize(w);
  // Pass 2: monotonicity repair. The log's contract is non-decreasing
  // observation (`end`) time; a stable sort restores it while preserving
  // the original order of simultaneous observations.
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].end < events[i - 1].end) ++stats.reordered_repaired;
  }
  if (stats.reordered_repaired > 0) {
    std::stable_sort(events.begin(), events.end(),
                     [](const SbeEvent& a, const SbeEvent& b) {
                       return a.end < b.end;
                     });
  }
  // Pass 3: drop exact duplicates (a duplicated scheduler record yields a
  // byte-identical event; distinct observations at the same minute are
  // legitimate and kept). Duplicates are adjacent after the stable sort
  // only if they were adjacent before it, so scan the whole tie-range.
  w = 0;
  for (std::size_t r = 0; r < events.size(); ++r) {
    const SbeEvent& e = events[r];
    bool dup = false;
    for (std::size_t p = w; p-- > 0 && events[p].end == e.end;) {
      const SbeEvent& q = events[p];
      if (q.run == e.run && q.app == e.app && q.node == e.node &&
          q.start == e.start && q.count == e.count) {
        dup = true;
        break;
      }
    }
    if (dup) {
      ++stats.duplicates_dropped;
      continue;
    }
    events[w++] = e;
  }
  events.resize(w);
  stats.accepted = events.size();
  return stats;
}

SbeLog rebuild_log(std::vector<SbeEvent> events, std::int32_t total_nodes,
                   std::int32_t total_apps, SbeSanitizeStats* stats) {
  const SbeSanitizeStats s =
      sanitize_events(events, total_nodes, total_apps);
  if (stats != nullptr) *stats = s;
  SbeLog log(total_nodes, total_apps);
  for (const SbeEvent& e : events) log.add(e);
  return log;
}

}  // namespace repro::faults
