// Churn resilience: what happens to an ICIStrategy network when nodes keep
// joining and leaving?
//
//   $ ./build/examples/churn_resilience [replication]
//
// Runs an hour of simulated churn over a 60-node network and prints an
// availability timeline, repair activity, and the storage overhead the
// chosen intra-cluster replication factor costs. Try r=1 vs r=2 to see the
// paper's storage/availability trade-off first-hand.
#include <cstdlib>
#include <iostream>

#include "chain/workload.h"
#include "common/stats.h"
#include "ici/network.h"
#include "storage/storage_meter.h"

int main(int argc, char** argv) {
  using namespace ici;

  const std::size_t replication = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2;
  std::cout << "Intra-cluster replication r = " << replication
            << " (pass a number to change, e.g. ./churn_resilience 1)\n\n";

  ChainGenConfig chain_cfg;
  chain_cfg.txs_per_block = 25;
  ChainGenerator generator(chain_cfg);

  core::IciNetworkConfig net_cfg;
  net_cfg.node_count = 60;
  net_cfg.ici.cluster_count = 4;
  net_cfg.ici.replication = replication;
  core::IciNetwork network(net_cfg);

  Block genesis = generator.workload().make_genesis();
  generator.workload().confirm(genesis);
  Chain chain(genesis);
  network.init_with_genesis(genesis);

  for (int i = 0; i < 15; ++i) {
    chain.append(generator.next_block(chain));
    network.disseminate_and_settle(chain.tip());
  }
  std::cout << "Seeded " << chain.height() << " blocks; availability = "
            << format_double(network.availability(), 4) << "\n\n";

  // 30% of nodes churn: ~8 min sessions, ~90 s downtime.
  sim::FaultPlan churn;
  churn.crash_fraction = 0.3;
  churn.mean_uptime_us = 480'000'000;
  churn.mean_downtime_us = 90'000'000;
  churn.seed = 99;
  network.start_faults(churn);

  std::cout << "minute  availability  offline  repairs  unavailable-events\n";
  RunningStat availability;
  for (int minute = 1; minute <= 60; ++minute) {
    network.simulator().run_until(network.simulator().now() + 60'000'000);
    const double a = network.availability();
    availability.add(a);
    if (minute % 5 == 0) {
      std::size_t offline = 0;
      for (std::size_t id = 0; id < network.node_count(); ++id) {
        if (!network.directory().online(static_cast<cluster::NodeId>(id))) ++offline;
      }
      std::cout << "  " << minute << "\t" << format_double(a, 4) << "\t  " << offline
                << "\t   " << network.metrics().counter_value("repair.copies_completed")
                << "\t    " << network.metrics().counter_value("repair.unavailable_blocks")
                << "\n";
    }
  }

  const StorageSnapshot snap = StorageMeter::snapshot(network.stores());
  std::cout << "\nMean availability over the hour: " << format_double(availability.mean(), 4)
            << "\nWorst sampled availability:      " << format_double(availability.min(), 4)
            << "\nMean per-node storage:           " << format_bytes(snap.mean_bytes)
            << "  (ledger is " << format_bytes(static_cast<double>(chain.total_bytes()))
            << ")\n";
  std::cout << "\nWith r=1 the sole holder of a block going offline leaves its cluster "
               "unable to serve that block until repair or return; r>=2 hides single "
               "departures entirely.\n";
  return 0;
}
