//! Quickstart: the paper's Figure 9 word-level prime factoring of 15,
//! plus the Figure 1 AoB representation basics.
//!
//! Run with: `cargo run --example quickstart`

use tangled_qat::aob::Aob;
use tangled_qat::pbp::{Pbits, PbpContext, Pint};

fn main() {
    // ------------------------------------------------------------------
    // Figure 1: the AoB representation of entangled superposition.
    // ------------------------------------------------------------------
    println!("== Figure 1: two 2-way entangled pbits ==");
    let lo = Aob::hadamard(2, 0); // {0,1,0,1}
    let hi = Aob::hadamard(2, 1); // {0,0,1,1}
    print!("channels (lo,hi) encode values: ");
    for e in 0..4u64 {
        let v = lo.meas(e) as u64 | ((hi.meas(e) as u64) << 1);
        print!("{v} ");
    }
    println!("\n(four equiprobable values, each 1/4 probability)\n");

    // ------------------------------------------------------------------
    // Figure 9: word-level prime factoring of 15.
    // ------------------------------------------------------------------
    println!("== Figure 9: pint word-level factoring of 15 ==");
    let mut ctx = PbpContext::new(8); // 8-way entanglement universe
    let a = ctx.pint_mk(4, 15); //            pint a = pint_mk(4, 15);
    let b = ctx.pint_h(4, 0x0f); //           pint b = pint_h(4, 0x0f);
    let c = ctx.pint_h(4, 0xf0); //           pint c = pint_h(4, 0xf0);
    let Ok(d) = ctx.pint_mul(&b, &c); //      pint d = pint_mul(b, c);
    let Ok(e) = ctx.pint_eq(&d, &a); //       pint e = pint_eq(d, a);
    let e_pint = Pint::from_bits(vec![e.clone()]);
    let Ok(f) = ctx.pint_mul(&e_pint, &b); // pint f = pint_mul(e, b);

    // pint_measure(f): non-destructive — reads ALL superposed values.
    print!("pint_measure(f) prints: ");
    for v in ctx.pint_measure(&f) {
        print!("{} ", v.value);
    }
    println!(" (paper: \"prints 0, 1, 3, 5, 15\")");

    // §4.2's shortcut: the answers are already encoded in e's 1-valued
    // entanglement channels — no final multiply needed.
    print!("factors read from e's channels: ");
    for v in ctx.pint_measure_where(&b, &e) {
        print!("{} ", v.value);
    }
    println!();

    // The measurement is NON-destructive: do it again, nothing collapsed.
    let again = ctx.pint_measure_where(&b, &e);
    assert_eq!(again.len(), 4);
    println!("measured again (no collapse): still {} values\n", again.len());

    // ------------------------------------------------------------------
    // The §2.7 worked example: had / lex / next.
    // ------------------------------------------------------------------
    println!("== §2.7 worked example ==");
    let a123 = Aob::hadamard(16, 4); // had @123,4
    let d = 42u64; //                   lex $8,42
    // `next` reports "none" as a typed Option; the ISA folds it to 0.
    let r = a123.next(d).unwrap_or(0); // next $8,@123
    println!("had @123,4 ; lex $8,42 ; next $8,@123  =>  $8 = {r} (paper: 48)");
    assert_eq!(r, 48);
}
