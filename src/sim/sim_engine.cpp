#include "sim/sim_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "dfs/namenode.hpp"

namespace sidr::sim {

std::vector<double> SimResult::sortedMapEnds() const {
  std::vector<double> t;
  t.reserve(maps.size());
  for (const auto& m : maps) t.push_back(m.end);
  std::sort(t.begin(), t.end());
  return t;
}

std::vector<double> SimResult::sortedReduceEnds() const {
  std::vector<double> t;
  t.reserve(reduces.size());
  for (const auto& r : reduces) t.push_back(r.end);
  std::sort(t.begin(), t.end());
  return t;
}

namespace {

/// FIFO device: acquiring `work` seconds starting no earlier than
/// `floor` returns the completion time. Long operations are split into
/// ~1 s chunks by the callers below, so concurrent users interleave and
/// the device approximates fair sharing instead of head-of-line
/// blocking a 300-second merge in front of a 1-second map read.
class Device {
 public:
  double acquire(double floor, double work) {
    double start = std::max(floor, freeAt_);
    freeAt_ = start + work;
    return freeAt_;
  }

 private:
  double freeAt_ = 0;
};

struct Event {
  double time;
  std::uint64_t seq;
  std::function<void()> fn;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }
};

constexpr double kIoChunkSeconds = 1.0;

}  // namespace

struct ClusterSim::Impl {
  Impl(const ClusterConfig& c, const SimJob& j)
      : cfg(c), job(j), rng(c.seed), namenode(c.numNodes, 3, c.seed) {}

  const ClusterConfig& cfg;
  const SimJob& job;
  std::mt19937_64 rng;
  dfs::Namenode namenode;

  // --- event queue ---
  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;
  double now = 0;

  void at(double t, std::function<void()> fn) {
    events.push(Event{std::max(t, now), seq++, std::move(fn)});
  }

  // --- cluster state ---
  struct Node {
    std::uint32_t freeMapSlots = 0;
    std::uint32_t freeReduceSlots = 0;
    Device hdfsDisk;  ///< aggregate of the node's 3 HDFS drives
    Device tempDisk;  ///< the OS/temp drive: spills, shuffle, merges
    Device nic;
  };
  std::vector<Node> nodes;

  /// Performs `work` seconds on `dev` in ~1 s chunks, then calls
  /// `done`. Chunking lets concurrent users of the device interleave.
  void ioChunked(Device& dev, double work, std::function<void()> done) {
    if (work <= 0) {
      at(now, std::move(done));
      return;
    }
    double piece = std::min(kIoChunkSeconds, work);
    double end = dev.acquire(now, piece);
    double remaining = work - piece;
    at(end, [this, &dev, remaining, done = std::move(done)]() mutable {
      ioChunked(dev, remaining, std::move(done));
    });
  }

  // --- input placement (one HDFS block per split) ---
  dfs::FileId inputFile = 0;
  std::vector<std::uint64_t> splitOffset;

  // --- map state ---
  std::deque<std::uint32_t> eligibleMaps;
  std::vector<bool> mapQueued;
  std::vector<bool> mapDone;
  std::uint32_t mapsDone = 0;

  // --- reduce state ---
  std::vector<std::vector<std::uint32_t>> deps;  // resolved I_l
  std::vector<std::vector<std::uint32_t>> mapToReduces;
  std::vector<std::uint32_t> depsRemaining;
  // Which keyblocks each map's completion has been credited to; only a
  // not-yet-credited completion decrements depsRemaining, so recovery
  // re-runs cannot double-satisfy a dependency.
  std::vector<std::vector<bool>> depCredited;  // [map] -> per-keyblock
  std::vector<bool> reduceFailedOnce;
  std::vector<bool> mapFailedOnce;
  std::vector<std::uint32_t> mapRunCount;
  std::vector<std::uint32_t> fetchesRemaining;
  std::vector<bool> reduceScheduled;
  std::vector<bool> reduceMergeStarted;
  std::vector<std::uint32_t> reduceNode;
  std::vector<std::uint32_t> priorityOrder;
  std::uint32_t nextPriorityPos = 0;

  // Sparse shuffle volumes: bytes from (map, keyblock).
  std::vector<std::unordered_map<std::uint32_t, std::uint64_t>> outBytes;
  std::vector<std::uint64_t> mapTotalOutBytes;

  // --- trace emission (obs schema, virtual lanes) ---
  static constexpr std::uint32_t kReduceLane = 1u << 20;
  static constexpr std::uint32_t kFetchLane = 2u << 20;
  std::vector<std::uint32_t> mapAttempt;     // executions started, per map
  std::vector<std::uint32_t> reduceAttempt;  // merges started, per keyblock
  std::vector<double> mergeStart;            // current attempt's merge start
  std::uint32_t fetchSeq = 0;  // each fetch gets its own lane: concurrent
                               // fetches of one keyblock may cross in time
                               // and would break per-lane nesting otherwise

  void addSpan(obs::Phase phase, obs::TaskSide side, std::uint32_t taskId,
               std::uint32_t attempt, std::uint32_t keyblock,
               std::uint32_t lane, double start, double end,
               std::uint64_t bytes = 0,
               obs::Outcome outcome = obs::Outcome::kOk) {
    obs::Span s;
    s.start = start;
    s.end = end;
    s.bytes = bytes;
    s.taskId = taskId;
    s.attempt = attempt;
    s.keyblock = keyblock;
    s.tid = lane;
    s.phase = phase;
    s.side = side;
    s.outcome = outcome;
    result.trace.spans.push_back(s);
  }

  // --- HOP estimate state ---
  std::vector<double> reduceFetchedBytes;     // bytes landed per reduce
  std::vector<double> hopThresholds{0.25, 0.5, 0.75};
  std::size_t nextThreshold = 0;
  std::uint32_t snapshotsOutstanding = 0;
  double snapshotLatest = 0;

  SimResult result;

  bool isSidr() const { return job.mode == ExecutionMode::kSidr; }

  void markMapEligible(std::uint32_t m) {
    if (mapDone[m] || mapQueued[m]) return;
    eligibleMaps.push_back(m);
    mapQueued[m] = true;
  }

  // ---- map lifecycle: read -> compute -> spill -> done ----

  void startMap(std::uint32_t m, std::uint32_t node, bool local) {
    mapQueued[m] = false;  // leaves the queue for good
    result.maps[m].start = now;
    double bytes = static_cast<double>(job.splitBytes[m]);
    double readWork;
    Device* readDev;
    if (local) {
      readWork = bytes / cfg.diskBandwidth;
      readDev = &nodes[node].hdfsDisk;
    } else {
      // Remote read: stream over the destination NIC (the bottleneck;
      // the source serves from page cache / an idle replica drive).
      readWork = bytes / cfg.nicBandwidth;
      readDev = &nodes[node].nic;
    }
    double noise = 1.0;
    if (cfg.mapNoiseSigma > 0) {
      std::lognormal_distribution<double> dist(0.0, cfg.mapNoiseSigma);
      noise = dist(rng);
    }
    double cpuSeconds = bytes * job.mapCpuSecondsPerByte * noise;
    // Sorted map output spills to the node's temp drive.
    // Volatile-intermediate mode (section 6) keeps map output in memory:
    // the non-failure-case saving is exactly this skipped spill.
    double spillWork =
        job.volatileIntermediate
            ? 0.0
            : static_cast<double>(mapTotalOutBytes[m]) /
                  cfg.tempDiskBandwidth;

    const std::uint32_t attempt = ++mapAttempt[m];
    const std::uint64_t readBytes = job.splitBytes[m];
    at(now + cfg.taskStartOverhead, [this, m, node, attempt, readBytes,
                                     readDev, readWork, cpuSeconds,
                                     spillWork] {
      const double tRead = now;
      ioChunked(*readDev, readWork, [this, m, node, attempt, readBytes, tRead,
                                     cpuSeconds, spillWork] {
        addSpan(obs::Phase::kRead, obs::TaskSide::kMap, m, attempt,
                obs::kNoId, m, tRead, now, readBytes);
        const double tCpu = now;
        at(now + cpuSeconds, [this, m, node, attempt, tCpu, spillWork] {
          addSpan(obs::Phase::kMap, obs::TaskSide::kMap, m, attempt,
                  obs::kNoId, m, tCpu, now);
          const double tSpill = now;
          ioChunked(nodes[node].tempDisk, spillWork,
                    [this, m, node, attempt, tSpill] {
                      if (!job.volatileIntermediate) {
                        addSpan(obs::Phase::kSpillWrite, obs::TaskSide::kMap,
                                m, attempt, obs::kNoId, m, tSpill, now,
                                mapTotalOutBytes[m]);
                      }
                      onMapDone(m, node);
                    });
        });
      });
    });
  }

  void onMapDone(std::uint32_t m, std::uint32_t node) {
    ++mapRunCount[m];
    if (mapRunCount[m] > 1) ++result.mapsReExecuted;
    // Injected failure: the map did its work but dies before committing
    // its output (mirrors the engine's attempt-level injection). The
    // slot frees up and the map re-queues for another full execution.
    if (!mapFailedOnce[m] &&
        std::find(job.failOnceMaps.begin(), job.failOnceMaps.end(), m) !=
            job.failOnceMaps.end()) {
      mapFailedOnce[m] = true;
      ++result.mapFailures;
      addSpan(obs::Phase::kTaskAttempt, obs::TaskSide::kMap, m, mapAttempt[m],
              obs::kNoId, m, result.maps[m].start, now, mapTotalOutBytes[m],
              obs::Outcome::kFail);
      ++nodes[node].freeMapSlots;
      markMapEligible(m);
      dispatch();
      return;
    }
    mapDone[m] = true;
    ++mapsDone;
    result.maps[m].end = now;
    addSpan(obs::Phase::kTaskAttempt, obs::TaskSide::kMap, m, mapAttempt[m],
            obs::kNoId, m, result.maps[m].start, now, mapTotalOutBytes[m]);
    ++nodes[node].freeMapSlots;
    for (std::uint32_t kb : mapToReduces[m]) {
      // Zero-width commit marker per destination keyblock at the moment
      // the map's output becomes fetchable — the sim analogue of the
      // engine's rename/pointer-flip publication, so the commit-before-
      // reduce gating invariant is checkable on simulator traces too.
      addSpan(obs::Phase::kRenameCommit, obs::TaskSide::kMap, m,
              mapAttempt[m], kb, m, now, now, fetchBytes(m, kb));
      if (depCredited[m][kb]) continue;
      depCredited[m][kb] = true;
      --depsRemaining[kb];
      if (reduceScheduled[kb] && !job.deferFetchUntilAllMaps) {
        startFetch(m, kb);
      }
    }
    maybeEmitHopSnapshots();
    // Sailfish semantics: keyblock contents only exist once every map
    // finished, so ALL fetches begin at the barrier.
    if (job.deferFetchUntilAllMaps && mapsDone == job.numMaps) {
      for (std::uint32_t kb = 0; kb < job.numReduces; ++kb) {
        if (reduceScheduled[kb]) {
          for (std::uint32_t dep : deps[kb]) startFetch(dep, kb);
        }
      }
    }
    dispatch();
  }

  // ---- shuffle ----

  std::uint64_t fetchBytes(std::uint32_t m, std::uint32_t kb) const {
    auto it = outBytes[m].find(kb);
    return it == outBytes[m].end() ? 0 : it->second;
  }

  void startFetch(std::uint32_t m, std::uint32_t kb) {
    ++result.shuffleConnections;
    double bytes = static_cast<double>(fetchBytes(m, kb));
    double bw = std::min(cfg.perConnectionCap, cfg.nicBandwidth);
    double wireWork = cfg.connectionLatency + bytes / bw;
    std::uint32_t node = reduceNode[kb];
    const double tFetch = now;
    const std::uint32_t lane = kFetchLane + fetchSeq++;
    const std::uint64_t byteCount = fetchBytes(m, kb);
    // Wire transfer, then the segment lands on the reduce node's temp
    // drive (Hadoop's shuffle writes fetched segments to disk, merging
    // them in the background during the copy phase).
    double landWork = bytes / cfg.tempDiskBandwidth;
    ioChunked(nodes[node].nic, wireWork, [this, node, landWork, bytes, kb,
                                          tFetch, lane, byteCount] {
      ioChunked(nodes[node].tempDisk, landWork, [this, bytes, kb, tFetch,
                                                 lane, byteCount] {
        addSpan(obs::Phase::kFetch, obs::TaskSide::kReduce, kb, 0, kb, lane,
                tFetch, now, byteCount);
        reduceFetchedBytes[kb] += bytes;
        onFetchDone(kb);
      });
    });
  }

  // ---- HOP estimate snapshots (section 5, MapReduce Online) ----

  void maybeEmitHopSnapshots() {
    if (!job.hopEstimates || snapshotsOutstanding > 0) return;
    while (nextThreshold < hopThresholds.size() &&
           static_cast<double>(mapsDone) >=
               hopThresholds[nextThreshold] *
                   static_cast<double>(job.numMaps)) {
      double fraction = hopThresholds[nextThreshold++];
      snapshotLatest = now;
      for (std::uint32_t kb = 0; kb < job.numReduces; ++kb) {
        if (!reduceScheduled[kb]) continue;
        ++snapshotsOutstanding;
        std::uint32_t node = reduceNode[kb];
        // Re-process everything fetched so far: one read of the landed
        // bytes plus the reduce function over them.
        double readWork = reduceFetchedBytes[kb] / cfg.tempDiskBandwidth;
        double cpuSeconds =
            reduceFetchedBytes[kb] * job.reduceCpuSecondsPerByte;
        ioChunked(nodes[node].tempDisk, readWork,
                  [this, fraction, cpuSeconds] {
                    at(now + cpuSeconds, [this, fraction] {
                      snapshotLatest = std::max(snapshotLatest, now);
                      if (--snapshotsOutstanding == 0) {
                        result.estimates.emplace_back(fraction,
                                                      snapshotLatest);
                        maybeEmitHopSnapshots();  // drain queued levels
                      }
                    });
                  });
      }
      if (snapshotsOutstanding > 0) break;  // finish this level first
    }
  }

  void onFetchDone(std::uint32_t kb) {
    --fetchesRemaining[kb];
    maybeStartMerge(kb);
  }

  // ---- reduce lifecycle ----

  void scheduleReduce(std::uint32_t kb, std::uint32_t node) {
    reduceScheduled[kb] = true;
    reduceNode[kb] = node;
    result.reduces[kb].start = now;
    if (isSidr()) {
      // Scheduling a reduce marks its dependency maps schedulable
      // (paper section 3.3).
      for (std::uint32_t m : deps[kb]) markMapEligible(m);
    }
    // Catch-up fetches for maps that finished before this reduce was
    // scheduled (Hadoop's copy phase does the same at reduce launch).
    // Under deferred (Sailfish) shuffle nothing is fetchable before the
    // last map, after which everything is.
    if (!job.deferFetchUntilAllMaps || mapsDone == job.numMaps) {
      for (std::uint32_t m : deps[kb]) {
        if (mapDone[m]) startFetch(m, kb);
      }
    }
    maybeStartMerge(kb);
  }

  void maybeStartMerge(std::uint32_t kb) {
    if (reduceMergeStarted[kb] || !reduceScheduled[kb]) return;
    if (depsRemaining[kb] > 0 || fetchesRemaining[kb] > 0) return;
    if (!isSidr() && mapsDone < job.numMaps) return;  // global barrier
    reduceMergeStarted[kb] = true;
    std::uint32_t node = reduceNode[kb];
    double bytes = static_cast<double>(job.reduceInputBytes[kb]);
    // Segments were background-merged during the copy phase (charged to
    // the temp drive as they landed); the final merge streams the full
    // input from temp into the reduce function. Extra on-disk passes
    // only appear when the segment count exceeds the merge fan-in.
    auto segments = static_cast<double>(deps[kb].size());
    // Background merging during the copy phase (already charged as the
    // landing write) keeps up to fanIn^2 segments consolidated; only
    // jobs beyond that pay extra on-disk passes after the barrier.
    double extraPasses = std::max(
        0.0, std::ceil(std::log(std::max(2.0, segments)) /
                       std::log(static_cast<double>(cfg.mergeFanIn))) -
                 2.0);
    double mergeWork =
        bytes * (1.0 + 2.0 * extraPasses) / cfg.tempDiskBandwidth;
    double cpuSeconds = bytes * job.reduceCpuSecondsPerByte;
    double writeWork =
        static_cast<double>(job.reduceOutputBytes[kb]) / cfg.diskBandwidth;
    // The attempt span starts HERE (merge start), not at scheduling:
    // every dependency commit happened at or before this instant, which
    // is exactly the gating invariant the trace checks encode.
    const std::uint32_t attempt = ++reduceAttempt[kb];
    mergeStart[kb] = now;
    const std::uint64_t mergeBytes = job.reduceInputBytes[kb];
    ioChunked(nodes[node].tempDisk, mergeWork, [this, kb, node, attempt,
                                                mergeBytes, cpuSeconds,
                                                writeWork] {
      addSpan(obs::Phase::kMerge, obs::TaskSide::kReduce, kb, attempt, kb,
              kReduceLane + kb, mergeStart[kb], now, mergeBytes);
      const double tCpu = now;
      at(now + cpuSeconds, [this, kb, node, attempt, tCpu, writeWork] {
        addSpan(obs::Phase::kReduce, obs::TaskSide::kReduce, kb, attempt, kb,
                kReduceLane + kb, tCpu, now);
        const double tWrite = now;
        ioChunked(nodes[node].hdfsDisk, writeWork,
                  [this, kb, node, attempt, tWrite] {
                    addSpan(obs::Phase::kOutputCommit, obs::TaskSide::kReduce,
                            kb, attempt, kb, kReduceLane + kb, tWrite, now,
                            job.reduceOutputBytes[kb]);
                    onReduceDone(kb, node);
                  });
      });
    });
  }

  void onReduceDone(std::uint32_t kb, std::uint32_t node) {
    // Injected failure: the reduce dies as it would commit. With
    // volatile intermediate data its inputs are gone; re-execute exactly
    // its I_l map subset (paper section 6). With persisted data the
    // reduce only re-fetches and re-merges.
    if (!reduceFailedOnce[kb] &&
        std::find(job.failOnceReduces.begin(), job.failOnceReduces.end(),
                  kb) != job.failOnceReduces.end()) {
      reduceFailedOnce[kb] = true;
      ++result.reduceFailures;
      addSpan(obs::Phase::kTaskAttempt, obs::TaskSide::kReduce, kb,
              reduceAttempt[kb], kb, kReduceLane + kb, mergeStart[kb], now,
              job.reduceInputBytes[kb], obs::Outcome::kFail);
      reduceMergeStarted[kb] = false;
      fetchesRemaining[kb] =
          static_cast<std::uint32_t>(deps[kb].size());
      if (job.volatileIntermediate) {
        for (std::uint32_t m : deps[kb]) {
          if (depCredited[m][kb]) {
            depCredited[m][kb] = false;
            ++depsRemaining[kb];
          }
          if (mapDone[m]) {
            mapDone[m] = false;
            --mapsDone;
          }
          markMapEligible(m);
        }
      } else {
        // Persisted segments: immediate catch-up re-fetch.
        for (std::uint32_t m : deps[kb]) startFetch(m, kb);
      }
      dispatch();
      return;
    }
    result.reduces[kb].end = now;
    addSpan(obs::Phase::kTaskAttempt, obs::TaskSide::kReduce, kb,
            reduceAttempt[kb], kb, kReduceLane + kb, mergeStart[kb], now,
            job.reduceInputBytes[kb]);
    ++nodes[node].freeReduceSlots;
    dispatch();
  }

  // ---- scheduling ----

  void dispatch() {
    // Reduce slots first (SIDR inverts scheduling; for stock the order
    // is id order and reduces just sit copying at the barrier).
    while (nextPriorityPos < job.numReduces) {
      bool assigned = false;
      for (std::uint32_t n = 0; n < cfg.numNodes; ++n) {
        if (nodes[n].freeReduceSlots == 0) continue;
        if (nextPriorityPos >= job.numReduces) break;
        --nodes[n].freeReduceSlots;
        scheduleReduce(priorityOrder[nextPriorityPos++], n);
        assigned = true;
      }
      if (!assigned) break;
    }
    // Map slots: locality-aware pick from the eligible queue.
    bool progress = true;
    while (progress && !eligibleMaps.empty()) {
      progress = false;
      for (std::uint32_t n = 0; n < cfg.numNodes && !eligibleMaps.empty();
           ++n) {
        while (nodes[n].freeMapSlots > 0 && !eligibleMaps.empty()) {
          // Probe the head of the queue for a split local to node n
          // (bounded scan, like Hadoop's locality-tree traversal).
          std::size_t probe = std::min<std::size_t>(eligibleMaps.size(), 64);
          std::size_t pick = 0;
          bool local = false;
          for (std::size_t i = 0; i < probe; ++i) {
            std::uint32_t m = eligibleMaps[i];
            if (namenode.isLocal(inputFile, splitOffset[m], job.splitBytes[m],
                                 n)) {
              pick = i;
              local = true;
              break;
            }
          }
          std::uint32_t m = eligibleMaps[pick];
          eligibleMaps.erase(eligibleMaps.begin() +
                             static_cast<std::ptrdiff_t>(pick));
          // The job's locality fraction caps how often reads are truly
          // local (byte-oriented splits over coordinate data miss even
          // when a replica is present).
          if (local) {
            std::uniform_real_distribution<double> u(0.0, 1.0);
            local = u(rng) < job.localityFraction;
          }
          --nodes[n].freeMapSlots;
          startMap(m, n, local);
          progress = true;
        }
      }
    }
  }

  SimResult run() {
    const std::uint32_t nm = job.numMaps;
    const std::uint32_t nr = job.numReduces;
    if (job.splitBytes.size() != nm || job.mapOutput.size() != nm) {
      throw std::invalid_argument("ClusterSim: malformed job (maps)");
    }
    if (job.reduceInputBytes.size() != nr ||
        job.reduceOutputBytes.size() != nr) {
      throw std::invalid_argument("ClusterSim: malformed job (reduces)");
    }
    if (isSidr() && job.reduceDeps.size() != nr) {
      throw std::invalid_argument("ClusterSim: SIDR job needs reduceDeps");
    }

    nodes = std::vector<Node>(cfg.numNodes);
    for (auto& n : nodes) {
      n.freeMapSlots = cfg.mapSlotsPerNode;
      n.freeReduceSlots = cfg.reduceSlotsPerNode;
    }

    // Register the input as one HDFS file, one block per split.
    std::uint64_t blockSize = nm > 0 ? std::max<std::uint64_t>(
                                           1, job.splitBytes[0])
                                     : 1;
    splitOffset.resize(nm);
    for (std::uint32_t m = 0; m < nm; ++m) {
      splitOffset[m] = static_cast<std::uint64_t>(m) * blockSize;
    }
    inputFile = namenode.addFile(
        "input", static_cast<std::uint64_t>(nm) * blockSize, blockSize);

    mapQueued.assign(nm, false);
    mapDone.assign(nm, false);
    result.maps.assign(nm, SimTaskTimes{});
    result.reduces.assign(nr, SimTaskTimes{});

    deps.resize(nr);
    for (std::uint32_t kb = 0; kb < nr; ++kb) {
      if (isSidr()) {
        deps[kb] = job.reduceDeps.at(kb);
      } else {
        deps[kb].resize(nm);
        for (std::uint32_t m = 0; m < nm; ++m) deps[kb][m] = m;
      }
    }
    mapToReduces.assign(nm, {});
    depsRemaining.assign(nr, 0);
    fetchesRemaining.assign(nr, 0);
    for (std::uint32_t kb = 0; kb < nr; ++kb) {
      depsRemaining[kb] = static_cast<std::uint32_t>(deps[kb].size());
      fetchesRemaining[kb] = depsRemaining[kb];
      for (std::uint32_t m : deps[kb]) mapToReduces[m].push_back(kb);
    }
    reduceScheduled.assign(nr, false);
    reduceMergeStarted.assign(nr, false);
    reduceNode.assign(nr, 0);
    reduceFailedOnce.assign(nr, false);
    mapFailedOnce.assign(nm, false);
    reduceFetchedBytes.assign(nr, 0.0);
    mapRunCount.assign(nm, 0);
    mapAttempt.assign(nm, 0);
    reduceAttempt.assign(nr, 0);
    mergeStart.assign(nr, 0.0);
    if (job.hopEstimates && isSidr()) {
      throw std::invalid_argument(
          "ClusterSim: HOP estimates apply to global-barrier mode");
    }
    depCredited.assign(nm, std::vector<bool>(nr, false));
    if ((job.volatileIntermediate || !job.failOnceReduces.empty()) &&
        !isSidr()) {
      throw std::invalid_argument(
          "ClusterSim: volatile intermediate / reduce failure injection "
          "require kSidr mode");
    }
    // Mirror the engine's fault-plan validation: a silently ignored
    // out-of-range id would make failure counters lie about the plan.
    for (std::uint32_t kb : job.failOnceReduces) {
      if (kb >= nr) {
        throw std::invalid_argument(
            "ClusterSim: failOnceReduces names keyblock out of range");
      }
    }
    for (std::uint32_t m : job.failOnceMaps) {
      if (m >= nm) {
        throw std::invalid_argument(
            "ClusterSim: failOnceMaps names map out of range");
      }
    }

    priorityOrder.resize(nr);
    if (job.reducePriority.empty()) {
      for (std::uint32_t kb = 0; kb < nr; ++kb) priorityOrder[kb] = kb;
    } else {
      priorityOrder = job.reducePriority;
    }

    outBytes.assign(nm, {});
    mapTotalOutBytes.assign(nm, 0);
    for (std::uint32_t m = 0; m < nm; ++m) {
      for (const auto& [kb, bytes] : job.mapOutput[m]) {
        outBytes[m][kb] += bytes;
        mapTotalOutBytes[m] += bytes;
      }
    }

    if (!isSidr()) {
      // Stock: every map is schedulable from the start.
      for (std::uint32_t m = 0; m < nm; ++m) markMapEligible(m);
    }
    dispatch();

    while (!events.empty()) {
      Event ev = events.top();
      events.pop();
      now = ev.time;
      ev.fn();
    }

    result.lastMapEnd = 0;
    for (const auto& m : result.maps) {
      result.lastMapEnd = std::max(result.lastMapEnd, m.end);
    }
    result.firstResult = result.reduces.empty() ? 0 : 1e300;
    result.totalTime = 0;
    for (const auto& r : result.reduces) {
      result.firstResult = std::min(result.firstResult, r.end);
      result.totalTime = std::max(result.totalTime, r.end);
    }
    result.trace.sortSpans();
    return result;
  }
};

ClusterSim::ClusterSim(ClusterConfig config, SimJob job)
    : config_(config), job_(std::move(job)) {}

SimResult ClusterSim::run() {
  Impl impl(config_, job_);
  return impl.run();
}

}  // namespace sidr::sim
