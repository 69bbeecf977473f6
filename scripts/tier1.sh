#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the concurrency-
# sensitive engine tests again under ThreadSanitizer (the engine's
# locking discipline — lock-free reduce fetch over published segment
# handles, atomic attempt commits of evicted segments — is exactly what
# TSan checks). engine_test and randomized_test cover both residency
# settings: the fault-plan / recovery suites (Engine.SpillRecoveryRaceHammer,
# Engine.FaultPlan*, RandomizedFaultPlan.*) also run under a one-page
# memory budget, where nearly every segment is evicted and streamed
# back, so eviction's recovery races are sanitized too, not just the
# resident path. The trace suites run under TSan as well: the lock-free
# span recorder publishes chunks concurrently from workers, and the
# invariant checks read them back after join.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j"$(nproc)"
# Fast loop first (*Hammer* stress tests carry the `slow` label), then
# the slow ones — same coverage, but a broken fast test fails sooner.
ctest --test-dir build --output-on-failure -j"$(nproc)" -LE slow
ctest --test-dir build --output-on-failure -j"$(nproc)" -L slow

# The TSan sweep, one suite per line. Why each is here:
#   scifile_test                     concurrent positioned reads and
#                                    disjoint writes through one shared
#                                    FileStorage descriptor (the stress
#                                    tests check every value read back)
#   engine_test / randomized_test    resident + evicted inputs, recovery
#                                    races
#   linear_fastpath_test             packed segments merged in place by
#                                    concurrently running reduces; dataset
#                                    readers streaming from one shared
#                                    handle on four threads
#   sort_spill_parity_test           workers re-evicting republished
#                                    segments while streaming fetches
#                                    read committed files
#   trace_invariants_test            per-thread span-chunk publication
#   trace_differential_test          engine-vs-sim traces, recorder on
#   out_of_core_test                 pressure eviction vs recovery vs
#                                    streaming fetch (DESIGN.md section 14)
#   engine_service_test              N jobs sharing workers and one spill
#                                    dir, evicting on those workers beside
#                                    other jobs' streaming reduces;
#                                    cancel/finalize races
#   segment_cache_test               warm claims racing donation, eviction
#                                    under pressure, cancel-mid-donation
#                                    (DESIGN.md section 16)
#   shuffle_transport_test           socket server threads serializing
#                                    segments concurrently with recovery
#                                    republication and mid-fetch cancels
#                                    (DESIGN.md section 17)
#   skew_join_test                   two-input maps feeding one shuffle,
#                                    refined-deal routing under every
#                                    budget/transport, join reduces over
#                                    dual-side segments (DESIGN.md §18)
TSAN_SUITES=(
  scifile_test
  engine_test
  randomized_test
  linear_fastpath_test
  sort_spill_parity_test
  trace_invariants_test
  trace_differential_test
  out_of_core_test
  engine_service_test
  segment_cache_test
  shuffle_transport_test
  skew_join_test
)
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" --target "${TSAN_SUITES[@]}"
for suite in "${TSAN_SUITES[@]}"; do
  TSAN_OPTIONS=halt_on_error=1 "./build-tsan/tests/${suite}"
done

# ASan pass over the memory-motion-heavy suites: the windowed
# SegmentStream decoder and the varint segment framing move buffer
# boundaries around under pressure — exactly where an off-by-one would
# hide from TSan — the service's job teardown (namespace removal,
# handle-outlives-service results) is where a use-after-free would, and
# the segment cache hands shared_ptr segment handles across job
# lifetimes (donation after finalize, claims from later jobs). The
# transport suite's framed-decode fuzzing and chunked file serving are
# classic heap-overflow territory, so it rides in the ASan pass too.
# skew_join_test joins two value streams inside one reduce (side-tagged
# list payloads, sorted in place) across every memory budget — buffer
# reuse across sides is where a stale-pointer bug would live. The
# packed-segment code rides along: segment_test (codec, sort,
# the merger's cursors over segments and streamed inputs),
# linear_fastpath_test (packed map output against the frozen
# lexicographic pipeline) and structural_mapper_parity_test (dense cell
# tables feeding the packed buffers). operators_test drives the
# radix-select median kernel, which indexes its reused key buffer with
# counts taken from digit histograms (DESIGN.md section 20).
# scifile_test streams regions through the RegionWalker's fixed staging
# buffer, whose offsets are where a heap overflow would hide (DESIGN.md
# section 19).
ASAN_SUITES=(
  scifile_test
  out_of_core_test
  engine_service_test
  segment_cache_test
  shuffle_transport_test
  skew_join_test
  segment_test
  linear_fastpath_test
  structural_mapper_parity_test
  operators_test
)
cmake --preset asan
cmake --build --preset asan -j"$(nproc)" --target "${ASAN_SUITES[@]}"
for suite in "${ASAN_SUITES[@]}"; do
  "./build-asan/tests/${suite}"
done

# Keep the perf tree building and the map-side benchmark runnable: a
# --quick pass catches bit-rot in the frozen legacy arm and the JSON
# emission without waiting for stable timings. The quick pass also
# emits BENCH_trace_phases.json (per-phase totals from a traced run)
# and checks the disabled-recorder arm stays within its overhead gate.
cmake --preset bench
cmake --build --preset bench -j"$(nproc)" --target bench_map_pipeline \
  bench_engine_service bench_shuffle_transport bench_join_skew \
  bench_memory_budget bench_segment_codec
./build-bench/bench/bench_map_pipeline --quick
# Codec parity gate: the bulk encoder must write the frozen byte-at-a-
# time codec's bytes and both decoders must yield the same records, on
# every workload (exits non-zero on a mismatch before timing anything).
./build-bench/bench/bench_segment_codec --quick
# The multi-job fleet driver is a correctness gate, not just a timing:
# 72 queued jobs against one EngineService, every success bit-identical
# to its solo baseline, failed/cancelled namespaces left empty, partial
# results observed mid-run, and the warm-resubmission arm hitting the
# segment cache with zero map tasks (exits non-zero on any violation).
./build-bench/bench/bench_engine_service --quick
# Transport sweep: the socket data plane, unbudgeted and under a
# one-page budget, must reproduce the in-process run bit-identically
# (exits non-zero on divergence).
./build-bench/bench/bench_shuffle_transport --quick
# Memory-budget sweep: every budget down to one page reproduces the
# unbudgeted run bit-identically, and the unbudgeted run, which releases
# consumed keyblocks like any other, peaks at no more than twice the
# never-evicting 1 GiB arm (exits non-zero on either violation).
./build-bench/bench/bench_memory_budget --quick
# Skew-adaptive join gate: refined plan bit-identical to uniform, both
# matching the nested-loop oracle, p99 keyblock load improved >= 1.5x
# (exits non-zero on any violation).
./build-bench/bench/bench_join_skew --quick
