// The paper's Section 2 motivating example: a document-sharing application
// in which multiple readers and writers concurrently access a document
// updated in sequential mode.
//
// One writer appends paragraphs; three readers with different needs read:
//   * an editor who wants an almost-current copy fast,
//   * a reviewer using exactly the paper's example QoS — "a copy of the
//     document that is not more than 5 versions old within 2.0 seconds
//     with a probability of at least 0.7",
//   * an archivist who insists on a fully fresh copy and tolerates delay.
#include <cstdio>
#include <memory>
#include <vector>

#include "client/handler.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

using namespace aqueduct;
using namespace std::chrono_literals;

namespace {

struct Reader {
  const char* name;
  core::QoSSpec qos;
  std::size_t reads_done = 0;
  std::size_t timing_failures = 0;
  std::size_t deferred = 0;
  std::uint64_t total_staleness = 0;
  client::ClientHandler* handler = nullptr;
};

}  // namespace

int main() {
  harness::Testbed bed(7, std::make_unique<sim::NormalDuration>(600us, 250us));
  runtime::Executor& sim = bed.executor();
  const auto groups = replication::ServiceGroups::for_service(1);

  auto add_replica = [&](bool primary) {
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::NormalDuration>(60ms, 25ms);
    config.lazy_update_interval = 3s;
    bed.add_replica(groups, primary, std::move(config),
                    [] { return std::make_unique<replication::SharedDocument>(); });
  };
  add_replica(true);  // sequencer
  for (int i = 0; i < 3; ++i) add_replica(true);
  for (int i = 0; i < 5; ++i) add_replica(false);
  bed.start_replicas();

  // The writer.
  client::ClientHandler& writer = bed.add_client(groups);

  // The readers.
  std::vector<Reader> readers;
  readers.push_back(
      {"editor   ", {.staleness_threshold = 1, .deadline = 150ms, .min_probability = 0.9}});
  readers.push_back(
      {"reviewer ", {.staleness_threshold = 5, .deadline = 2s, .min_probability = 0.7}});
  readers.push_back(
      {"archivist", {.staleness_threshold = 0, .deadline = 8s, .min_probability = 0.5}});
  for (auto& reader : readers) reader.handler = &bed.add_client(groups);
  sim.run_for(1s);

  // The writer appends a paragraph every ~400 ms, 60 times.
  for (int i = 0; i < 60; ++i) {
    sim.after(i * 400ms, [&, i] {
      auto append = std::make_shared<replication::DocAppend>();
      append->line = "paragraph " + std::to_string(i);
      writer.update(append, {});
    });
  }

  // Each reader polls the document every ~600 ms.
  for (auto& reader : readers) {
    for (int i = 0; i < 40; ++i) {
      sim.after(200ms + i * 600ms, [&reader] {
        reader.handler->read(
            std::make_shared<replication::DocRead>(), reader.qos,
            [&reader](const client::ReadOutcome& outcome) {
              ++reader.reads_done;
              if (outcome.timing_failure) ++reader.timing_failures;
              if (outcome.deferred) ++reader.deferred;
              reader.total_staleness += outcome.staleness;
            });
      });
    }
  }

  sim.run_for(60s);

  std::printf("document-sharing run: 60 appends, 3 readers x 40 reads\n\n");
  std::printf(
      "reader     | a (versions) | deadline  | Pc   | reads | timing-fail "
      "| deferred | avg staleness | avg replicas\n");
  for (const auto& reader : readers) {
    std::printf(
        "%s  | %12llu | %8s | %.2f | %5zu | %11zu | %8zu | %13.2f | %.2f\n",
        reader.name,
        static_cast<unsigned long long>(reader.qos.staleness_threshold),
        sim::format(reader.qos.deadline).c_str(), reader.qos.min_probability,
        reader.reads_done, reader.timing_failures, reader.deferred,
        reader.reads_done
            ? static_cast<double>(reader.total_staleness) / reader.reads_done
            : 0.0,
        reader.handler->stats().avg_replicas_selected());
  }
  std::printf(
      "\nnote how the fresh-and-fast editor leans on primaries (more "
      "replicas selected),\nthe reviewer's relaxed staleness lets "
      "secondaries answer, and the archivist's\nzero-staleness reads defer "
      "to lazy updates when secondaries answer.\n");
  return 0;
}
