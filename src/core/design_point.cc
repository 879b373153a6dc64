/**
 * @file
 * Implementation of the design-point presets.
 */

#include "core/design_point.hh"

#include "util/logging.hh"
#include "util/units.hh"

namespace rana {

const char *
designKindName(DesignKind kind)
{
    switch (kind) {
      case DesignKind::SramId:
        return "S+ID";
      case DesignKind::EdramId:
        return "eD+ID";
      case DesignKind::EdramOd:
        return "eD+OD";
      case DesignKind::Rana0:
        return "RANA (0)";
      case DesignKind::RanaE5:
        return "RANA (E-5)";
      case DesignKind::RanaStarE5:
        return "RANA*(E-5)";
    }
    panic("unreachable design kind");
}

DesignPoint
makeDesignPoint(DesignKind kind, const RetentionDistribution &retention,
                const DesignPointParams &params)
{
    DesignPoint design;
    design.name = designKindName(kind);

    if (kind == DesignKind::SramId) {
        design.config = testAcceleratorSram();
        design.options.dataflows = {DataflowKind::ID};
        design.options.policy = RefreshPolicy::None;
        design.options.refreshIntervalSeconds =
            retention.worstCaseRetention();
        design.failureRate = 0.0;
        return design;
    }

    design.config = params.edramBanks
                        ? testAcceleratorEdram(*params.edramBanks)
                        : testAcceleratorEdram();

    switch (kind) {
      case DesignKind::EdramId:
        design.options.dataflows = {DataflowKind::ID};
        design.failureRate = 0.0;
        design.options.policy = RefreshPolicy::GatedGlobal;
        break;
      case DesignKind::EdramOd:
        design.options.dataflows = {DataflowKind::OD};
        design.failureRate = 0.0;
        design.options.policy = RefreshPolicy::GatedGlobal;
        break;
      case DesignKind::Rana0:
        design.options.dataflows = hybridDataflows();
        design.failureRate = 0.0;
        design.options.policy = RefreshPolicy::GatedGlobal;
        break;
      case DesignKind::RanaE5:
        design.options.dataflows = hybridDataflows();
        design.failureRate = 1e-5;
        design.options.policy = RefreshPolicy::GatedGlobal;
        break;
      case DesignKind::RanaStarE5:
        design.options.dataflows = hybridDataflows();
        design.failureRate = 1e-5;
        design.options.policy = RefreshPolicy::PerBank;
        break;
      case DesignKind::SramId:
        panic("handled above");
    }

    design.options.refreshIntervalSeconds =
        params.retentionSeconds
            ? *params.retentionSeconds
            : (design.failureRate > 0.0
                   ? retention.retentionTimeFor(design.failureRate)
                   : retention.worstCaseRetention());
    return design;
}

std::vector<DesignPoint>
tableIvDesigns(const RetentionDistribution &retention)
{
    return {
        makeDesignPoint(DesignKind::SramId, retention),
        makeDesignPoint(DesignKind::EdramId, retention),
        makeDesignPoint(DesignKind::EdramOd, retention),
        makeDesignPoint(DesignKind::Rana0, retention),
        makeDesignPoint(DesignKind::RanaE5, retention),
        makeDesignPoint(DesignKind::RanaStarE5, retention),
    };
}

std::vector<DesignPoint>
daDianNaoDesigns(const RetentionDistribution &retention)
{
    const Tiling ddn_tiling{64, 64, 1, 1};

    DesignPoint baseline;
    baseline.name = "DaDianNao";
    baseline.config = daDianNaoNode();
    baseline.options.dataflows = {DataflowKind::WD};
    baseline.options.fixedTiling = ddn_tiling;
    baseline.options.policy = RefreshPolicy::GatedGlobal;
    baseline.options.refreshIntervalSeconds =
        retention.worstCaseRetention();
    baseline.failureRate = 0.0;

    DesignPoint rana0 = baseline;
    rana0.name = "RANA (0)";
    rana0.options.dataflows = hybridDataflows();

    DesignPoint rana_e5 = rana0;
    rana_e5.name = "RANA (E-5)";
    rana_e5.failureRate = 1e-5;
    rana_e5.options.refreshIntervalSeconds =
        retention.retentionTimeFor(1e-5);

    DesignPoint rana_star = rana_e5;
    rana_star.name = "RANA*(E-5)";
    rana_star.options.policy = RefreshPolicy::PerBank;

    return {baseline, rana0, rana_e5, rana_star};
}

} // namespace rana
