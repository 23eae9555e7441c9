//! `tracegen` — inspect, export, and replay workload traces.
//!
//! ```text
//! tracegen list
//! tracegen info  canneal --cores 8 --scale 2 --seed 42
//! tracegen dump  canneal --cores 8 --out canneal.json [--races 4]
//! tracegen run   canneal.json --protocol ARC
//! ```
//!
//! `dump` writes the full program (every operation of every thread) as
//! JSON; `run` loads such a file and simulates it, printing the
//! report's headline metrics. This is the interchange path for
//! replaying externally-produced traces through the engines: any tool
//! that emits the same JSON shape can drive the simulator.

use rce_common::{json, MachineConfig, ProtocolKind, MAX_CORES};
use rce_core::Machine;
use rce_trace::{characterize, inject_races, Program, WorkloadSpec};

fn usage() -> ! {
    eprintln!(
        "usage:\n  tracegen list\n  tracegen info <workload> [opts]\n  \
         tracegen dump <workload> --out FILE [opts] [--races N]\n  \
         tracegen run <file.json> [--protocol MESI|CE|CE+|ARC]\n\
         opts: --cores N --scale N --seed N"
    );
    std::process::exit(2);
}

struct Opts {
    cores: usize,
    scale: u32,
    seed: u64,
    out: Option<String>,
    races: usize,
    protocol: ProtocolKind,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        cores: 8,
        scale: 1,
        seed: 42,
        out: None,
        races: 0,
        protocol: ProtocolKind::Arc,
    };
    let mut i = 0;
    while i < args.len() {
        let val = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--cores" => {
                o.cores = val(i)
                    .parse()
                    .ok()
                    .filter(|c| (1..=MAX_CORES).contains(c))
                    .unwrap_or_else(|| usage())
            }
            "--scale" => {
                o.scale = val(i)
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--seed" => o.seed = val(i).parse().unwrap_or_else(|_| usage()),
            "--races" => o.races = val(i).parse().unwrap_or_else(|_| usage()),
            "--out" => o.out = Some(val(i)),
            "--protocol" => {
                o.protocol = ProtocolKind::ALL
                    .into_iter()
                    .find(|p| p.name() == val(i))
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
        i += 2;
    }
    o
}

fn build(name: &str, o: &Opts) -> Program {
    let w = WorkloadSpec::parse(name).unwrap_or_else(|| {
        eprintln!("unknown workload '{name}'; try `tracegen list`");
        std::process::exit(2);
    });
    let mut p = w.build(o.cores, o.scale, o.seed);
    if o.races > 0 {
        inject_races(&mut p, o.races, o.seed);
    }
    p
}

fn print_info(p: &Program) {
    let c = characterize(p);
    println!("workload:        {}", c.name);
    println!("threads:         {}", c.threads);
    println!("memory ops:      {}", c.mem_ops);
    println!("sync ops:        {}", c.sync_ops);
    println!("regions:         {}", c.regions);
    println!("ops/region:      {:.1}", c.mean_region_len);
    println!("footprint lines: {}", c.footprint_lines);
    println!("shared lines:    {}", c.shared_lines);
    println!("shared access:   {:.1}%", c.shared_access_frac * 100.0);
    println!("write fraction:  {:.1}%", c.write_frac * 100.0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "list" => {
            for w in WorkloadSpec::PARSEC
                .iter()
                .chain(WorkloadSpec::MICRO.iter())
            {
                println!("{}{}", w.name(), if w.is_racy() { "  (racy)" } else { "" });
            }
        }
        "info" => {
            if args.len() < 2 {
                usage();
            }
            let o = parse_opts(&args[2..]);
            print_info(&build(&args[1], &o));
        }
        "dump" => {
            if args.len() < 2 {
                usage();
            }
            let o = parse_opts(&args[2..]);
            let p = build(&args[1], &o);
            let out = o.out.clone().unwrap_or_else(|| format!("{}.json", p.name));
            std::fs::write(&out, json::to_string(&p)).expect("write trace file");
            eprintln!(
                "wrote {out}: {} threads, {} ops",
                p.n_threads(),
                p.total_ops()
            );
        }
        "run" => {
            if args.len() < 2 {
                usage();
            }
            let o = parse_opts(&args[2..]);
            let text = std::fs::read_to_string(&args[1]).expect("read trace file");
            let p: Program = json::from_str(&text).expect("parse trace file");
            rce_trace::validate(&p).expect("trace must be structurally valid");
            let cfg = MachineConfig::paper_default(p.n_threads(), o.protocol);
            let r = Machine::new(&cfg).expect("config").run(&p).expect("run");
            println!("protocol:   {}", r.protocol.name());
            println!("cycles:     {}", r.cycles.0);
            println!("mem ops:    {}", r.mem_ops);
            println!("L1 miss:    {:.1}%", r.l1_miss_rate() * 100.0);
            println!("NoC bytes:  {}", r.noc_bytes());
            println!("DRAM bytes: {}", r.dram_bytes());
            println!("energy:     {}", r.energy_total());
            println!(
                "conflicts:  {} (oracle agrees: {})",
                r.exceptions.len(),
                r.matches_oracle()
            );
            for ex in r.exceptions.iter().take(10) {
                println!("  {ex}");
            }
        }
        _ => usage(),
    }
}
