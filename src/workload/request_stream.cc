/**
 * @file
 * Implementation of the request-stream generator.
 */

#include "workload/request_stream.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace oscar
{

void
ServingConfig::validate() const
{
    // A NaN fails every comparison, and no bound admits infinity.
    const auto require = [](bool ok, const char *field, const char *want,
                            double value) {
        if (!ok || !std::isfinite(value)) {
            oscar_fatal("serving config: %s must be %s, got %g", field,
                        want, value);
        }
    };
    require(meanInterarrivalCycles >= 1.0, "meanInterarrivalCycles",
            ">= 1", meanInterarrivalCycles);
    require(diurnalAmplitude >= 0.0 && diurnalAmplitude < 1.0,
            "diurnalAmplitude", "in [0, 1)", diurnalAmplitude);
    require(diurnalPeriodCycles > 0, "diurnalPeriodCycles", "positive",
            static_cast<double>(diurnalPeriodCycles));
    require(burstProbability >= 0.0 && burstProbability <= 1.0,
            "burstProbability", "in [0, 1]", burstProbability);
    require(burstRateMultiplier >= 1.0, "burstRateMultiplier", ">= 1",
            burstRateMultiplier);
    require(burstMeanRequests >= 1.0, "burstMeanRequests", ">= 1",
            burstMeanRequests);
    require(clientsPerCore >= 1, "clientsPerCore", ">= 1",
            static_cast<double>(clientsPerCore));
    require(meanThinkCycles >= 0.0, "meanThinkCycles", ">= 0",
            meanThinkCycles);
    require(tenants >= 1, "tenants", ">= 1", static_cast<double>(tenants));
    require(tenantSkew >= 0.0, "tenantSkew", ">= 0", tenantSkew);
    require(meanSegments >= 1.0, "meanSegments", ">= 1", meanSegments);
    require(segmentsSigma >= 0.0, "segmentsSigma", ">= 0", segmentsSigma);
    require(measureRequests >= 1, "measureRequests", ">= 1",
            static_cast<double>(measureRequests));
}

RequestStream::RequestStream(const ServingConfig &config,
                             std::uint64_t seed)
    : cfg(config), rng(seed), tenantDist(config.tenants,
                                         config.tenantSkew)
{
    cfg.validate();
}

void
RequestStream::shapeRequest(Request &request)
{
    request.id = count++;
    request.tenant =
        static_cast<std::uint32_t>(tenantDist.sample(rng));
    // Log-normal segment count with mean cfg.meanSegments: mu is
    // shifted by -sigma^2/2 so the distribution's mean (not its
    // median) matches the configured value.
    const double sigma = cfg.segmentsSigma;
    const double mu = std::log(cfg.meanSegments) - sigma * sigma / 2.0;
    const double drawn = rng.nextLogNormal(mu, sigma);
    request.segments = static_cast<std::uint32_t>(
        std::max(1.0, std::round(drawn)));
}

double
RequestStream::rateMultiplier(Cycle t) const
{
    double multiplier = 1.0;
    if (cfg.diurnalAmplitude > 0.0) {
        const double phase =
            2.0 * 3.14159265358979323846 *
            (static_cast<double>(t % cfg.diurnalPeriodCycles) /
             static_cast<double>(cfg.diurnalPeriodCycles));
        multiplier *= 1.0 + cfg.diurnalAmplitude * std::sin(phase);
    }
    if (burstRemaining > 0)
        multiplier *= cfg.burstRateMultiplier;
    return multiplier;
}

Request
RequestStream::nextArrival()
{
    oscar_assert(cfg.arrival == ArrivalModel::OpenLoop);
    // Burst state machine: an arrival can open an episode whose
    // length (in requests) is geometric with the configured mean.
    if (burstRemaining > 0) {
        --burstRemaining;
    } else if (cfg.burstProbability > 0.0 &&
               rng.nextBool(cfg.burstProbability)) {
        burstRemaining = 1 + static_cast<std::uint64_t>(
            rng.nextExponential(cfg.burstMeanRequests));
    }

    // Piecewise-exponential thinning of the inhomogeneous process:
    // the gap is sampled at the rate in force when it begins. The
    // diurnal period is orders of magnitude above the mean gap, so
    // the stepwise approximation is indistinguishable in practice.
    const double multiplier = std::max(rateMultiplier(nextCycle), 1e-6);
    const double gap =
        rng.nextExponential(cfg.meanInterarrivalCycles / multiplier);
    nextCycle += std::max<Cycle>(1, static_cast<Cycle>(gap));

    Request request;
    request.issued = nextCycle;
    shapeRequest(request);
    return request;
}

Request
RequestStream::issueRequest(std::uint32_t client, Cycle now)
{
    oscar_assert(cfg.arrival == ArrivalModel::ClosedLoop);
    Request request;
    request.issued = now;
    request.client = client;
    shapeRequest(request);
    return request;
}

Cycle
RequestStream::thinkTime()
{
    const double think = rng.nextExponential(
        std::max(1.0, cfg.meanThinkCycles));
    return std::max<Cycle>(1, static_cast<Cycle>(think));
}

} // namespace oscar
