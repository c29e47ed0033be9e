#include "layers.h"

#include <poll.h>
#include <sys/prctl.h>

#include <array>
#include <cmath>
#include <fstream>
#include <thread>

#include "base/probe_stats.h"
#include "base/rng.h"
#include "base/socket.h"
#include "net/client.h"
#include "net/wire.h"
#include "query/batch.h"

namespace perfbench {
namespace {

constexpr const char* kHost = "127.0.0.1";

bool SameKnn(const std::vector<tso::KnnResult>& a,
             const std::vector<tso::KnnResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].poi != b[i].poi || !SameBits(a[i].distance, b[i].distance)) {
      return false;
    }
  }
  return true;
}

bool SameAll(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

/// Calls `calls` in turn, starting at `first` and wrapping around, so over a
/// request stream every layer takes every position, and the cache state the
/// others leave behind, equally often.
template <size_t N>
void RunRotated(size_t first, const std::array<std::function<void()>, N>& calls) {
  for (size_t k = 0; k < N; ++k) calls[(first + k) % N]();
}

/// Runs `fn`, adds its duration in nanoseconds to `samples`, and returns
/// its result.
template <typename Fn>
auto TimeInto(Samples* samples, Fn&& fn) {
  const int64_t t0 = NowNs();
  auto result = fn();
  samples->Add(static_cast<double>(NowNs() - t0));
  return result;
}

/// Uniform random pairs s != t over `ids`, reproducible from `seed`.
std::vector<std::pair<uint32_t, uint32_t>> MakePairs(
    const std::vector<uint32_t>& ids, size_t count, uint64_t seed) {
  tso::Rng rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(count);
  while (out.size() < count) {
    const uint32_t s = ids[rng.Uniform(ids.size())];
    const uint32_t t = ids[rng.Uniform(ids.size())];
    if (s != t) out.emplace_back(s, t);
  }
  return out;
}

}  // namespace

ClosedLoopResult PipelinedDistance(uint16_t port, uint32_t conns,
                                   uint32_t window, double seconds,
                                   uint64_t max_per_conn,
                                   const std::vector<uint32_t>& ids,
                                   uint64_t seed, const DistanceCheck& check,
                                   Report* rep) {
  std::vector<uint64_t> completed(conns, 0), failed(conns, 0);
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c]() {
      tso::TsodClient client;
      const tso::Status st = client.Connect(kHost, port);
      if (!st.ok()) {
        rep->Fail("connect: " + st.ToString());
        return;
      }
      tso::Rng rng(seed * 7919 + c);
      std::vector<std::pair<uint32_t, uint32_t>> ring(window);
      uint64_t sent = 0, done = 0, bad = 0;
      auto send = [&]() {
        uint32_t s = 0, t = 0;
        do {
          s = ids[rng.Uniform(ids.size())];
          t = ids[rng.Uniform(ids.size())];
        } while (s == t);
        ring[sent % window] = {s, t};
        if (!client.SendDistance(s, t).ok()) return false;
        ++sent;
        return true;
      };
      for (uint32_t i = 0; i < window && send(); ++i) {
      }
      while (done < sent) {
        const auto [s, t] = ring[done % window];
        tso::StatusOr<double> d = client.RecvDistance();
        ++done;
        if (!d.ok()) {
          ++bad;
          rep->Note("pipelined Distance: " + d.status().ToString());
          if (!client.connected()) {
            bad += sent - done;
            done = sent;
            break;
          }
        } else if (!check(s, t, *d)) {
          ++bad;
          rep->Note("pipelined Distance: wrong answer");
        }
        const bool more = NowNs() < stop &&
                          (max_per_conn == 0 || sent < max_per_conn);
        if (more && !send()) ++bad;
      }
      completed[c] = done;
      failed[c] = bad;
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult r;
  r.seconds = static_cast<double>(NowNs() - start) / 1e9;
  uint64_t bad = 0;
  for (uint32_t c = 0; c < conns; ++c) {
    r.completed += completed[c];
    bad += failed[c];
  }
  rep->Count(r.completed, bad);
  return r;
}

OpenLoopResult OpenLoopDistance(uint16_t port, uint32_t conns, double rate,
                                double seconds,
                                const std::vector<uint32_t>& ids,
                                uint64_t seed, const DistanceCheck& check,
                                SpanLog* log, Report* rep) {
  struct PerConn {
    Samples latency, lateness;
    uint64_t attempted = 0, failed = 0;
    SpanLog spans{false};
  };
  std::vector<PerConn> per(conns);
  for (PerConn& p : per) p.spans = SpanLog(log->enabled());
  const double period_ns = 1e9 * conns / rate;
  const uint64_t total = static_cast<uint64_t>(seconds * rate / conns);
  // Every connection's schedule hangs off one origin, staggered by an even
  // share of the period.
  const int64_t origin = NowNs() + 2'000'000;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c]() {
      PerConn& me = per[c];
      // Sleep to the microsecond, not to the default 50 us timer slack.
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      const auto pairs = MakePairs(ids, total, seed * 31 + c);
      const int64_t t0 =
          origin + static_cast<int64_t>(c * period_ns / conns);
      auto due = [&](uint64_t i) {
        return t0 + static_cast<int64_t>(static_cast<double>(i) * period_ns);
      };
      me.attempted = total;
      me.latency.Reserve(total);
      me.lateness.Reserve(total);
      tso::StatusOr<tso::Socket> sock = tso::ConnectTcp(kHost, port);
      if (!sock.ok()) {
        rep->Fail("open-loop connect: " + sock.status().ToString());
        me.failed = total;
        return;
      }
      const int64_t give_up = origin + static_cast<int64_t>(seconds * 1e9) +
                              10'000'000'000LL;
      std::string out, in;
      char buf[1 << 16];
      uint64_t sent = 0, received = 0;
      while (received < total) {
        int64_t now = NowNs();
        if (now > give_up) break;
        out.clear();
        while (sent < total && due(sent) <= now) {
          tso::AppendDistanceRequest(&out, static_cast<uint32_t>(sent + 1),
                                     pairs[sent].first, pairs[sent].second, 0);
          me.lateness.Add(static_cast<double>(now - due(sent)));
          ++sent;
        }
        if (!out.empty() &&
            !tso::WriteFull(*sock, out.data(), out.size()).ok()) {
          break;
        }
        // Block until the next send falls due, but spin (zero timeout) over
        // its last 15 us so the generator itself is never late.
        const int64_t wait =
            sent < total ? due(sent) - NowNs() - 15'000 : 20'000'000;
        timespec ts{};
        if (wait > 0) {
          ts.tv_sec = wait / 1'000'000'000;
          ts.tv_nsec = wait % 1'000'000'000;
        }
        pollfd pfd{sock->fd(), POLLIN, 0};
        if (ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
        tso::StatusOr<size_t> got = tso::ReadSome(*sock, buf, sizeof(buf));
        if (!got.ok() || *got == 0) break;
        now = NowNs();
        in.append(buf, *got);
        size_t off = 0;
        while (true) {
          tso::WireFrame frame;
          size_t needed = 0;
          tso::Status error;
          const tso::DecodeResult r = tso::DecodeFrame(
              std::string_view(in).substr(off), &frame, &needed, &error);
          if (r != tso::DecodeResult::kFrame) break;
          off += frame.size();
          tso::StatusOr<tso::WireResponse> resp = tso::ParseResponse(frame);
          const uint64_t i = resp.ok() ? resp->request_id - 1ull : total;
          if (i >= sent) {
            rep->Note("open loop: unexpected response");
            continue;
          }
          ++received;
          me.latency.Add(static_cast<double>(now - due(i)));
          me.spans.Add("net.rpc", due(i), now, 0, (uint64_t{c} << 32) | i);
          if (!resp->status.ok()) {
            ++me.failed;
            rep->Note("open loop Distance: " + resp->status.ToString());
          } else if (!check(pairs[i].first, pairs[i].second,
                            resp->distance)) {
            ++me.failed;
            rep->Note("open loop Distance: wrong answer");
          }
        }
        in.erase(0, off);
      }
      me.failed += total - received;  // never answered
    });
  }
  for (std::thread& t : threads) t.join();
  OpenLoopResult r;
  uint64_t attempted = 0, failed = 0;
  for (PerConn& p : per) {
    attempted += p.attempted;
    failed += p.failed;
    r.latency_ns.Append(p.latency);
    r.lateness_ns.Append(p.lateness);
    log->Absorb(p.spans);
  }
  rep->Count(attempted, failed);
  return r;
}

void ReplayLayers(const LayerTarget& t, SpanLog* log, Report* rep) {
  const uint64_t seed = t.seed * 1000003 + 17;
  tso::ServeEngine& engine = *t.engine;
  const tso::DistanceSource& source = *t.source;

  // Expected answers for every ordered pair of the request ids, from the
  // in-process engine; every wire answer below is bit-compared to them.
  uint32_t max_id = 0;
  for (uint32_t id : t.ids) max_id = std::max(max_id, id);
  std::vector<int32_t> dense(max_id + 1, -1);
  for (size_t i = 0; i < t.ids.size(); ++i) {
    dense[t.ids[i]] = static_cast<int32_t>(i);
  }
  const size_t n = t.ids.size();
  std::vector<double> table(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      tso::StatusOr<double> d = engine.Distance(t.ids[i], t.ids[j]);
      if (!d.ok()) {
        rep->Fail("replay reference Distance: " + d.status().ToString());
        return;
      }
      table[i * n + j] = *d;
    }
  }
  const DistanceCheck check = [&](uint32_t s, uint32_t u, double d) {
    return SameBits(table[dense[s] * n + dense[u]], d);
  };

  // Net, process level: a fixed closed-loop pipelined stream (2 connections
  // x 128 in flight) with CPU, context switches, server frames and engine
  // calls read as deltas around it. Only the server calls the engine
  // meanwhile, once per coalesced run and once per frame served alone.
  const tso::TsodServer::Stats s0 = t.server->stats();
  const uint64_t q0 = engine.stats().queries;
  const Usage u0 = Usage::Now();
  const ClosedLoopResult cl =
      PipelinedDistance(t.port, 2, 128, 30.0, 25000, t.ids, seed + 1, check,
                        rep);
  const Usage u1 = Usage::Now();
  const tso::TsodServer::Stats s1 = t.server->stats();
  const uint64_t q1 = engine.stats().queries;
  const double rpcs = std::max<double>(1, cl.completed);
  rep->Metric("net.cpu_us_per_rpc",
              (u1.user_us - u0.user_us + u1.sys_us - u0.sys_us) / rpcs, "us");
  rep->Metric("net.sys_us_per_rpc", (u1.sys_us - u0.sys_us) / rpcs, "us");
  rep->Metric("net.vcsw_per_rpc", static_cast<double>(u1.vcsw - u0.vcsw) / rpcs,
              "count");
  const double frames_per_call =
      static_cast<double>(s1.frames - s0.frames) /
      std::max<double>(1, static_cast<double>(q1 - q0));
  rep->Metric("net.frames_per_engine_call", frames_per_call, "count");

  // Net, generator validity: a short open loop at the frozen offered rate.
  const OpenLoopResult ol = OpenLoopDistance(t.port, 2, t.offered_rate, 1.0,
                                             t.ids, seed + 2, check, log, rep);
  rep->Metric("net.gen_late_p99_us", ol.lateness_ns.Percentile(99) / 1e3, "us");

  // One request stream, replayed request by request through ServeEngine
  // (serve and below), the DistanceSource over the same bytes (query and
  // below) and the wire (net and below), the calls back to back in rotating
  // order so parent minus child is a layer's own time. The answers must
  // agree bit for bit. Spans link each request's query span to its serve
  // span and that to its wire span.
  const auto pairs = MakePairs(t.ids, 4000, seed + 3);
  const auto batch_pairs = MakePairs(t.ids, 24 * 1024, seed + 4);
  std::vector<uint32_t> queries;
  {
    tso::Rng rng(seed + 5);
    for (int i = 0; i < 200; ++i) queries.push_back(t.ids[rng.Uniform(n)]);
  }
  constexpr size_t kBatch = 1024;
  constexpr uint32_t kK = 10;
  tso::TsodClient client;
  if (const tso::Status st = client.Connect(kHost, t.port); !st.ok()) {
    rep->Fail("replay connect: " + st.ToString());
    return;
  }
  tso::QueryScratch scratch;
  for (size_t i = 0; i < 200; ++i) {  // warm-up, untimed
    (void)engine.Distance(pairs[i].first, pairs[i].second);
    (void)source.Distance(pairs[i].first, pairs[i].second, scratch);
    (void)client.Distance(pairs[i].first, pairs[i].second);
  }
  Samples serve_dist, query_dist, wire_dist, serve_batch, wire_batch,
      serve_knn, query_knn, wire_knn, serve_range, query_range, wire_range;
  const tso::Status unset = tso::Status::Internal("not run");
  uint64_t bad = 0;
  std::string frames;  // every request and response frame, for their bytes
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint32_t s = pairs[i].first, u = pairs[i].second;
    tso::StatusOr<double> sd = unset, qd = unset, wd = unset;
    int64_t at[3][2] = {};
    RunRotated<3>(i, {[&] {
                        at[0][0] = NowNs();
                        sd = engine.Distance(s, u);
                        at[0][1] = NowNs();
                      },
                      [&] {
                        at[1][0] = NowNs();
                        qd = source.Distance(s, u, scratch);
                        at[1][1] = NowNs();
                      },
                      [&] {
                        at[2][0] = NowNs();
                        wd = client.Distance(s, u);
                        at[2][1] = NowNs();
                      }});
    serve_dist.Add(static_cast<double>(at[0][1] - at[0][0]));
    query_dist.Add(static_cast<double>(at[1][1] - at[1][0]));
    wire_dist.Add(static_cast<double>(at[2][1] - at[2][0]));
    const uint64_t net_span =
        log->Add("net.distance", at[2][0], at[2][1], 0, i);
    const uint64_t serve_span =
        log->Add("serve.distance", at[0][0], at[0][1], net_span, i);
    log->Add("query.distance", at[1][0], at[1][1], serve_span, i);
    if (!sd.ok() || !qd.ok() || !wd.ok() || !SameBits(*sd, *qd) ||
        !SameBits(*sd, *wd)) {
      ++bad;
    }
    tso::AppendDistanceRequest(&frames, 1, s, u, 0);
    tso::AppendDistanceResponse(&frames, 1, sd.ok() ? *sd : 0.0);
  }
  size_t turn = 0;
  for (size_t off = 0; off < batch_pairs.size(); off += kBatch) {
    const std::vector<std::pair<uint32_t, uint32_t>> req(
        batch_pairs.begin() + off, batch_pairs.begin() + off + kBatch);
    tso::StatusOr<std::vector<double>> sb = unset, wb = unset;
    RunRotated<2>(turn++, {
        [&] { sb = TimeInto(&serve_batch, [&] { return engine.Batch(req, 1); }); },
        [&] { wb = TimeInto(&wire_batch, [&] { return client.Batch(req); }); }});
    if (!sb.ok() || !wb.ok() || !SameAll(*sb, *wb)) ++bad;
    tso::AppendBatchRequest(&frames, 1, req, 0);
    if (sb.ok()) tso::AppendBatchResponse(&frames, 1, *sb);
  }
  for (uint32_t q : queries) {
    tso::StatusOr<std::vector<tso::KnnResult>> sk = unset, qk = unset,
                                               wk = unset;
    RunRotated<3>(turn, {
        [&] { sk = TimeInto(&serve_knn, [&] { return engine.Knn(q, kK, 1); }); },
        [&] {
          qk = TimeInto(&query_knn, [&] { return tso::KnnQuery(source, q, kK); });
        },
        [&] { wk = TimeInto(&wire_knn, [&] { return client.Knn(q, kK); }); }});
    if (!sk.ok() || !qk.ok() || !wk.ok() || !SameKnn(*sk, *qk) ||
        !SameKnn(*sk, *wk)) {
      ++bad;
    }
    tso::StatusOr<std::vector<uint32_t>> sr = unset, qr = unset, wr = unset;
    RunRotated<3>(turn++, {
        [&] {
          sr = TimeInto(&serve_range, [&] { return engine.Range(q, t.radius, 1); });
        },
        [&] {
          qr = TimeInto(&query_range,
                        [&] { return tso::RangeQuery(source, q, t.radius); });
        },
        [&] {
          wr = TimeInto(&wire_range, [&] { return client.Range(q, t.radius); });
        }});
    if (!sr.ok() || !qr.ok() || !wr.ok() || *sr != *qr || *sr != *wr) ++bad;
    tso::AppendKnnRequest(&frames, 1, q, kK, 0);
    if (sk.ok()) tso::AppendKnnResponse(&frames, 1, *sk);
    tso::AppendRangeRequest(&frames, 1, q, t.radius, 0);
    if (sr.ok()) tso::AppendRangeResponse(&frames, 1, *sr);
  }
  const uint64_t replayed =
      pairs.size() + batch_pairs.size() / kBatch + 2 * queries.size();
  rep->Count(3 * replayed, bad);
  if (bad > 0) rep->Note("replay: wire, serve and query answers differ");

  // Coalesced runs as the server forms them: consecutive pipelined
  // Distance frames become one ServeEngine::Batch of this length.
  const size_t run = std::clamp<size_t>(std::lround(frames_per_call), 1,
                                        pairs.size());
  Samples serve_run, query_run;
  for (size_t off = 0; off + run <= pairs.size(); off += run) {
    std::span<const std::pair<uint32_t, uint32_t>> part(pairs.data() + off, run);
    TimeInto(&serve_run, [&] { return engine.Batch(part, 1); });
    TimeInto(&query_run, [&] { return tso::DistanceBatch(source, part, 1); });
  }

  tso::ProbeCounters dist_pc, knn_pc, range_pc;
  {
    tso::ProbeCounterScope scope(&dist_pc);
    for (const auto& [s, u] : pairs) (void)source.Distance(s, u, scratch);
  }
  {
    tso::ProbeCounterScope scope(&knn_pc);
    for (uint32_t q : queries) (void)tso::KnnQuery(source, q, kK);
  }
  {
    tso::ProbeCounterScope scope(&range_pc);
    for (uint32_t q : queries) (void)tso::RangeQuery(source, q, t.radius);
  }

  // dyn: pinning a snapshot, and a read through the pinned overlay.
  Samples pin_ns, overlay_ns;
  for (const auto& [s, u] : pairs) {
    const int64_t a = NowNs();
    tso::DynamicSeOracle::PinnedSource pinned = t.dyn->Pin();
    const int64_t b = NowNs();
    (void)pinned.source().Distance(s, u);
    overlay_ns.Add(static_cast<double>(NowNs() - b));
    pin_ns.Add(static_cast<double>(b - a));
  }

  const double wire_p50_us = wire_dist.Percentile(50) / 1e3;
  const double serve_p50_ns = serve_dist.Percentile(50);
  const double query_p50_ns = query_dist.Percentile(50);
  const double wire_batch_us = wire_batch.Percentile(50) / 1e3;
  const double serve_batch_us = serve_batch.Percentile(50) / 1e3;
  const double wire_knn_us = wire_knn.Percentile(50) / 1e3;
  const double serve_knn_us = serve_knn.Percentile(50) / 1e3;
  const double net_self_us = wire_p50_us - serve_p50_ns / 1e3;
  rep->Metric("net.self_p50_us", net_self_us, "us");
  rep->Metric("net.batch_self_us", wire_batch_us - serve_batch_us, "us");
  rep->Metric("net.bytes_per_rpc", static_cast<double>(frames.size()) / replayed,
              "B");
  rep->Metric("wire.distance_p50_us", wire_p50_us, "us");
  rep->Metric("wire.batch_p50_us", wire_batch_us, "us");
  rep->Metric("wire.knn_p50_us", wire_knn_us, "us");
  rep->Metric("wire.knn_p99_us", wire_knn.Percentile(99) / 1e3, "us");
  rep->Metric("wire.range_p50_us", wire_range.Percentile(50) / 1e3, "us");
  rep->Metric("serve.distance_p50_ns", serve_p50_ns, "ns");
  rep->Metric("serve.distance_p99_ns", serve_dist.Percentile(99), "ns");
  rep->Metric("serve.batch_ns_per_q", serve_run.Percentile(50) / run, "ns");
  rep->Metric("serve.self_p50_ns", serve_p50_ns - query_p50_ns, "ns");
  rep->Metric("serve.batch_p50_us", serve_batch_us, "us");
  rep->Metric("serve.knn_p50_us", serve_knn_us, "us");
  rep->Metric("serve.range_p50_us", serve_range.Percentile(50) / 1e3, "us");
  rep->Metric("query.distance_p50_ns", query_p50_ns, "ns");
  rep->Metric("query.batch_ns_per_q", query_run.Percentile(50) / run, "ns");
  rep->Metric("query.knn_p50_us", query_knn.Percentile(50) / 1e3, "us");
  rep->Metric("query.range_p50_us", query_range.Percentile(50) / 1e3, "us");
  rep->Metric("query.overlay_p50_ns", overlay_ns.Percentile(50), "ns");
  rep->Metric("dyn.pin_p50_ns", pin_ns.Percentile(50), "ns");
  const double nq = static_cast<double>(pairs.size());
  const double nk = static_cast<double>(queries.size());
  rep->Metric("base.probes_per_q", dist_pc.probes / nq, "count");
  rep->Metric("base.hits_per_probe",
              dist_pc.hits / std::max<double>(1, dist_pc.probes), "ratio");
  rep->Metric("base.prefetches_per_q", dist_pc.prefetches / nq, "count");
  rep->Metric("base.probes_per_knn", knn_pc.probes / nk, "count");
  rep->Metric("base.probes_per_range", range_pc.probes / nk, "count");
  // Layer shares of the user-visible latencies.
  rep->Metric("share.net_p2p", net_self_us / wire_p50_us, "ratio");
  rep->Metric("share.engine_batch", serve_batch_us / wire_batch_us, "ratio");
  rep->Metric("share.engine_knn", serve_knn_us / wire_knn_us, "ratio");
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
}

}  // namespace perfbench
