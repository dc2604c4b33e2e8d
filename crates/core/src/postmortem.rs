//! Post-mortem context capture: the machine / vCPU / metrics snapshot a
//! dump embeds next to the flight recorder (the trace ring's tail).
//!
//! Kept separate from the trigger sites (VM kill, PRR quarantine, PCAP
//! watchdog abort) so every dump carries the same context shape and
//! `mnvdbg` renders them uniformly. Everything read here is pure
//! observation — no charging, no device sync.

use mnv_arm::machine::Machine;
use mnv_hal::VmId;
use mnv_metrics::Registry;
use mnv_trace::json::Json;
use std::collections::BTreeMap;

use crate::kobj::pd::Pd;
use crate::obs;
use crate::stats::KernelStats;

/// Build the `context` object of a post-mortem blob: the live machine
/// state (clock, PC, mode, cumulative PMU inputs), the implicated VM's
/// saved vCPU set and attributed PMU totals when one is identified, and a
/// metrics snapshot ([`obs::snapshot`]) when the registry is live.
pub fn context(
    m: &Machine,
    pds: &BTreeMap<VmId, Pd>,
    vm: Option<VmId>,
    stats: &KernelStats,
    metrics: &Registry,
) -> Json {
    let p = m.pmu_inputs();
    let pmu = Json::obj([
        ("cycles", Json::num(p.cycles as f64)),
        ("instr_retired", Json::num(p.instr_retired as f64)),
        ("l1i_refill", Json::num(p.l1i_refill as f64)),
        ("l1d_refill", Json::num(p.l1d_refill as f64)),
        ("tlb_refill", Json::num(p.tlb_refill as f64)),
        ("pt_walks", Json::num(p.pt_walks as f64)),
        ("exc_taken", Json::num(p.exc_taken as f64)),
    ]);
    let live = Json::obj([
        ("pc", Json::str(format!("0x{:08x}", m.cpu.pc))),
        ("privileged", Json::Bool(m.cpu.cpsr.mode.is_privileged())),
        ("asid", Json::num(m.cp15.asid().0 as f64)),
    ]);
    let vcpu = vm
        .and_then(|v| pds.get(&v).map(|pd| (v, pd)))
        .map(|(v, pd)| {
            let regs: Vec<Json> = pd
                .vcpu
                .regs
                .iter()
                .map(|r| Json::str(format!("0x{r:08x}")))
                .collect();
            Json::obj([
                ("vm", Json::num(v.0 as f64)),
                ("name", Json::str(pd.name)),
                ("regs", Json::Arr(regs)),
                ("cpsr", Json::str(format!("{:?}", pd.vcpu.cpsr))),
                ("ttbr0", Json::str(format!("0x{:08x}", pd.vcpu.ttbr0))),
                ("dacr", Json::str(format!("0x{:08x}", pd.vcpu.dacr))),
                ("contextidr", Json::num(pd.vcpu.contextidr as f64)),
                ("pmu_cycles", Json::num(pd.stats.pmu.cycles as f64)),
                (
                    "pmu_instr_retired",
                    Json::num(pd.stats.pmu.instr_retired as f64),
                ),
            ])
        })
        .unwrap_or(Json::Null);
    let metrics_json = if metrics.is_enabled() {
        obs::snapshot(m, pds, stats, metrics).to_json()
    } else {
        Json::Null
    };
    Json::obj([
        ("cycles", Json::num(m.now().raw() as f64)),
        ("cpu", live),
        ("pmu", pmu),
        ("vcpu", vcpu),
        ("metrics", metrics_json),
    ])
}
