// Bootstrap cost: how expensive is it for a new participant to join?
//
//   $ ./build/examples/bootstrap_cost
//
// Builds the same 300-block ledger under all three flavours — full
// replication, RapidChain-style committee sharding, and ICIStrategy — then
// joins one fresh node to each and prints what the join actually cost in
// bytes and (simulated) time. This is the abstract's "greatly save the
// overhead of bootstrapping" claim, runnable.
#include <iostream>

#include "baseline/fullrep.h"
#include "baseline/rapidchain.h"
#include "chain/workload.h"
#include "common/stats.h"
#include "common/table.h"
#include "ici/network.h"

int main() {
  using namespace ici;

  ChainGenConfig chain_cfg;
  chain_cfg.blocks = 300;
  chain_cfg.txs_per_block = 40;
  const Chain chain = ChainGenerator(chain_cfg).generate();
  constexpr std::size_t kNodes = 100;

  std::cout << "Ledger: " << chain.size() << " blocks, "
            << format_bytes(static_cast<double>(chain.total_bytes())) << "\n"
            << "Network: " << kNodes << " existing nodes; a new node joins at (50, 50)\n\n";

  Table table({"system", "downloads", "sim time (s)", "bodies", "note"});

  {
    baseline::FullRepConfig cfg;
    cfg.node_count = kNodes;
    cfg.validate = false;
    baseline::FullRepNetwork net(cfg);
    net.init_with_genesis(chain.at_height(0));
    net.preload_chain(chain);
    const auto report = net.bootstrap({50, 50});
    table.row({"full replication", format_bytes(static_cast<double>(report.bytes_downloaded)),
               format_double(static_cast<double>(report.elapsed_us) / 1e6, 2),
               std::to_string(report.bodies_fetched), "entire ledger"});
  }
  {
    baseline::RapidChainConfig cfg;
    cfg.node_count = kNodes;
    cfg.committee_count = 5;
    baseline::RapidChainNetwork net(cfg);
    net.init_with_genesis(chain.at_height(0));
    net.preload_chain(chain);
    const auto report = net.bootstrap({50, 50});
    table.row({"rapidchain (k=5)", format_bytes(static_cast<double>(report.bytes_downloaded)),
               format_double(static_cast<double>(report.elapsed_us) / 1e6, 2),
               std::to_string(report.bodies_fetched), "one committee shard"});
  }
  {
    core::IciNetworkConfig cfg;
    cfg.node_count = kNodes;
    cfg.ici.cluster_count = 5;  // clusters of ~20
    core::IciNetwork net(cfg);
    net.init_with_genesis(chain.at_height(0));
    net.preload_chain(chain);
    const auto report = net.bootstrap({50, 50});
    table.row({"icistrategy (m=20)", format_bytes(static_cast<double>(report.bytes_downloaded)),
               format_double(static_cast<double>(report.elapsed_us) / 1e6, 2),
               std::to_string(report.bodies_fetched), "headers + assigned share"});
  }

  table.print(std::cout);
  std::cout << "\nThe ICI joiner syncs every header (cheap) and then fetches only the bodies "
               "the intra-cluster assignment hands it — roughly ledger/m plus headers.\n";
  return 0;
}
