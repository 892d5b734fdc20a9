/**
 * @file
 * Ablation: load-balancing dispatch disciplines.
 *
 * Load balancing heads the paper's list of intended BigHouse studies
 * ("best suited for studies investigating load balancing, power
 * management, ..."). This bench runs the same cluster and workload under
 * Random, Round-Robin, Power-of-Two and Join-Shortest-Queue dispatch at
 * two loads and reports mean and p95 response time to convergence —
 * the classic ordering Random < RR < P2C < JSQ (better is lower), with
 * P2C capturing most of JSQ's benefit from two probes.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "distribution/basic.hh"
#include "distribution/fit.hh"

using namespace bighouse;

namespace {

struct Outcome
{
    double meanMs;
    double p95Ms;
};

Outcome
runDispatch(Dispatch policy, double rho)
{
    // One central arrival stream feeding the balancer over 16 single-core
    // servers; 10 ms tasks with Cv 1.5. Each server's share of the
    // stream offers load rho (the source runs at 16x the per-server
    // rate).
    ExperimentSpec spec;
    spec.workload.name = "dispatch";
    spec.workload.interarrival = std::make_unique<Exponential>(rho / 0.010);
    spec.workload.service = fitMeanCv(0.010, 1.5);
    spec.servers = 16;
    spec.coresPerServer = 1;
    spec.dispatch = policy;
    spec.sqs.accuracy = 0.03;

    const SqsResult result = Experiment(std::move(spec)).run(4242);
    return Outcome{result.estimates[0].mean * 1e3,
                   result.estimates[0].quantiles[0].value * 1e3};
}

} // namespace

int
main()
{
    std::printf("=== Ablation: dispatch disciplines ===\n");
    std::printf("16 single-core servers behind one balancer, 10 ms tasks "
                "(Cv 1.5); mean / p95 response (ms)\n\n");

    const std::vector<std::pair<const char*, Dispatch>> policies = {
        {"Random", Dispatch::Random},
        {"RoundRobin", Dispatch::RoundRobin},
        {"PowerOfTwo", Dispatch::PowerOfTwo},
        {"JSQ", Dispatch::JoinShortestQueue},
    };
    TextTable table({"dispatch", "mean@50%", "p95@50%", "mean@85%",
                     "p95@85%"});
    for (const auto& [name, policy] : policies) {
        const Outcome low = runDispatch(policy, 0.5);
        const Outcome high = runDispatch(policy, 0.85);
        table.addRow({name, formatG(low.meanMs, 4), formatG(low.p95Ms, 4),
                      formatG(high.meanMs, 4), formatG(high.p95Ms, 4)});
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("Reading: informed dispatch beats oblivious dispatch, and "
                "the gap explodes at high load; two random probes (P2C) "
                "recover most of full JSQ's benefit at O(1) probing cost "
                "— the standard power-of-two-choices result, here as a "
                "BigHouse load-balancing study.\n");
    return 0;
}
