//! Beyond 16-way entanglement: the paper's scaling story, end to end.
//!
//! Qat's hardware stops at 16-way (65,536-bit AoB registers). For more,
//! §1.2/§5 prescribe software that treats AoB blocks as symbols of
//! compressed patterns. This example runs the same computation at E = 16,
//! 24, 32, and 40 on both software representations:
//!
//! * the flat RE (run-length × repetition) form, and
//! * the nested tree form (the §5 "regular patterns of AoB blocks"
//!   future work),
//!
//! and shows storage staying flat while the explicit form would grow to
//! 137 GB.
//!
//! Run with: `cargo run --example beyond_16_way`

use tangled_qat::pbp::{Pbits, PbpContext, TreeCtx};

fn main() {
    println!(
        "{:>4} {:>16} {:>10} {:>12} {:>14} {:>12}",
        "E", "explicit bytes", "RE runs", "tree nodes", "pop(predicate)", "next(0)"
    );
    for e in [16u32, 24, 32, 40] {
        // Predicate: "bit 5 of the channel is set AND bit E-1 is set,
        // XOR bit E-2" — structured, like real PBP intermediate values.
        let mut ctx = PbpContext::new(e);
        let a = ctx.hadamard(5);
        let b = ctx.hadamard(e - 1);
        let c = ctx.hadamard(e - 2);
        let ab = ctx.and(&a, &b);
        let v = ctx.xor(&ab, &c);

        let mut t = TreeCtx::new(e).expect("a supported degree");
        let ta = t.hadamard(5);
        let tb = t.hadamard(e - 1);
        let tc = t.hadamard(e - 2);
        let tab = t.and(&ta, &tb).expect("same universe");
        let tv = t.xor(&tab, &tc).expect("same universe");

        // Both representations agree on every summary:
        assert_eq!(ctx.re_pop_all(&v), t.pop_all(&tv));
        assert_eq!(ctx.re_next(&v, 0), t.next(&tv, 0));
        assert_eq!(ctx.re_get(&v, 12345), t.get(&tv, 12345));

        let explicit = (1u64 << e) / 8;
        println!(
            "{:>4} {:>16} {:>10} {:>12} {:>14} {:>12}",
            e,
            explicit,
            v.storage_runs(),
            t.node_count(),
            t.pop_all(&tv),
            t.next(&tv, 0).unwrap_or(0),
        );
    }

    println!("\nThe flat RE's single-level limit, and the tree lifting it:");
    // H(6) AND H(39) at E=40 over mismatched small/large periods.
    let mut t = TreeCtx::new(40).expect("a supported degree");
    let a = t.hadamard(6);
    let b = t.hadamard(39);
    let c = t.and(&a, &b).expect("same universe");
    println!(
        "  tree: H(6) & H(39) at E=40 -> {} nodes, pop = 2^38 = {}, first answer channel {}",
        t.node_count(),
        t.pop_all(&c),
        t.next(&c, 0).unwrap_or(0)
    );
    let mut ctx = PbpContext::new(40);
    let fa = ctx.hadamard(6);
    let fb = ctx.hadamard(39);
    // Silence the expected panic's backtrace while probing the limit.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let refused =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.and(&fa, &fb))).is_err();
    std::panic::set_hook(prev_hook);
    println!(
        "  flat RE: the same op {} (single-level representation budget)",
        if refused { "is refused with a clear diagnostic" } else { "unexpectedly succeeded" }
    );
    assert!(refused);

    // Finale: the full Figure 9 factoring algorithm at 20-way — beyond the
    // paper's 16-way hardware — entirely on nested patterns.
    println!("\nFactoring 899 with 10-bit operands (20-way, 1,048,576 channels):");
    let mut t = TreeCtx::new(20).expect("a supported degree");
    let n = t.pint_mk(10, 899);
    let b = t.pint_h(10, 0x3ff); // dims 0..10
    let c = t.pint_h(10, 0x3ff << 10); // dims 10..20
    let d = t.pint_mul(&b, &c).expect("same universe");
    let e = t.pint_eq(&d, &n).expect("same universe");
    let factors = t.pint_measure_where(&b, &e, 100);
    println!(
        "  factors {factors:?} from {} shared nodes ({} factor-pair channels)",
        t.node_count(),
        t.pop_all(&e)
    );
    assert_eq!(factors, vec![1, 29, 31, 899]);
}

