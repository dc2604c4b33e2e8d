//! Quickstart: boot Mini-NOVA, create two paravirtualized uC/OS-II guests,
//! let them run the paper's workload mix against the FPGA, and print what
//! happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mini_nova_repro::prelude::*;

fn main() {
    // 1. Boot the kernel on the simulated Zynq-7000: dual-purpose DDR,
    //    four partially reconfigurable regions, PCAP, hwMMU. Capture the
    //    whole run as a cycle-timestamped event trace.
    let mut kernel = Kernel::new(KernelConfig::default());
    let tracer = kernel.enable_tracing(1 << 16);
    // Per-VM counter plane: every cache/TLB/cycle event charged to the
    // VM — or the kernel itself — that caused it.
    let metrics = kernel.enable_metrics();

    // 2. Put the paper's bitstream library on the "SD card": FFT-256 …
    //    FFT-8192 and QAM-4/16/64, each with its predefined PRR list.
    let tasks = kernel.register_paper_task_set();
    println!("registered {} hardware tasks:", tasks.len());
    for id in &tasks {
        let e = kernel.state.hwmgr.tasks.get(*id).unwrap();
        println!(
            "  {:>3}  {:<9}  bitstream {:>4} KB  PRRs {:?}",
            id.to_string(),
            e.core.name(),
            e.bit_len / 1024,
            e.prrs
        );
    }

    // 3. Create two guest VMs, each a paravirtualized uC/OS-II running
    //    GSM encoding, ADPCM compression and the T_hw requester.
    for seed in [1u64, 2] {
        let mut os = Ucos::new(UcosConfig::default());
        os.task_create(8, Box::new(THwTask::new(tasks.clone(), seed)));
        os.task_create(12, Box::new(GsmTask::new(seed, 4)));
        os.task_create(20, Box::new(AdpcmTask::new(seed + 50)));
        let vm = kernel.create_vm(VmSpec {
            name: if seed == 1 { "guest-a" } else { "guest-b" },
            priority: Priority::GUEST,
            guest: GuestKind::Ucos(Box::new(os)),
        });
        println!("created {vm} (asid {})", kernel.pd(vm).asid);
    }

    // 4. Run 300 ms of simulated time.
    println!("\nrunning 300 ms of simulated time …");
    kernel.run(Cycles::from_millis(300.0));

    // 5. Report.
    let s = &kernel.state.stats;
    println!("\n== kernel ==");
    println!("  VM switches:        {}", s.vm_switches);
    println!("  hypercalls:         {}", s.hypercalls_total);
    println!("  vIRQs injected:     {}", s.virqs_injected);
    println!("\n== hardware task manager ==");
    println!("  invocations:        {}", s.hwmgr.invocations);
    println!("  reconfigurations:   {}", s.hwmgr.reconfigs);
    println!("  reclaims:           {}", s.hwmgr.reclaims);
    println!("  busy rejections:    {}", s.hwmgr.busy);
    println!("  mean entry:         {:.2} us", s.hwmgr.entry.mean_us());
    println!("  mean execution:     {:.2} us", s.hwmgr.exec.mean_us());
    println!("  mean exit:          {:.2} us", s.hwmgr.exit.mean_us());
    println!(
        "  mean PL IRQ entry:  {:.2} us",
        s.hwmgr.irq_entry.mean_us()
    );

    let pl: &Pl = kernel.pl();
    println!("\n== programmable logic ==");
    println!("  PCAP transfers:     {}", pl.pcap_transfers());
    for p in 0..pl.num_prrs() as u8 {
        let prr = pl.prr(p);
        println!(
            "  PRR{}: {} runs, now holding {}",
            p,
            prr.runs,
            prr.loaded_kind()
                .map(|k| k.name())
                .unwrap_or("nothing".into())
        );
    }
    println!("  hwMMU violations:   {}", pl.hwmmu().violation_count);

    for vm in [VmId(1), VmId(2)] {
        let pd = kernel.pd(vm);
        println!(
            "\n== {} ({}) ==\n  cpu time: {:.1} ms, hypercalls: {}, timer ticks: {}",
            pd.name,
            vm,
            Cycles::new(pd.stats.cpu_cycles).as_millis(),
            pd.stats.hypercalls,
            pd.vtimer.ticks_injected
        );
        // Epoch accounting (always on — it backs the VmStats hypercall):
        // what the emulated PMU attributed to this VM's world.
        let pmu = &pd.stats.pmu;
        println!(
            "  attributed: {:.1} ms, IPC {:.2}, d$ refills {}, TLB refills {}",
            Cycles::new(pmu.cycles).as_millis(),
            pmu.instr_retired as f64 / pmu.cycles.max(1) as f64,
            pmu.l1d_refill,
            pmu.tlb_refill
        );
    }

    // 6. Export the trace: a Perfetto/chrome://tracing-loadable timeline
    //    plus a top-N text summary of where the cycles went.
    let path = std::path::Path::new("target/experiments/quickstart.trace.json");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, tracer.export_chrome()).unwrap();
    println!("\n{}", tracer.summary(10));
    println!(
        "wrote {} ({} events retained, {} recorded) — open in Perfetto or chrome://tracing",
        path.display(),
        tracer.len(),
        tracer.total()
    );

    // 7. Export the counter plane: the registry mnvtop renders live, as
    //    Prometheus text exposition (`mnv_<series>{vm="1"} value`).
    let path = std::path::Path::new("target/experiments/quickstart.prom");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, metrics.prometheus()).unwrap();
    println!(
        "wrote {} — per-VM counters in Prometheus text format",
        path.display()
    );
}
