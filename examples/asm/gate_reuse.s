; Repeated gate block: the benchmark's `gate-reuse` program, cut to 100
; iterations. Eight `had` inits, then per iteration a 7-gate Qat block over
; the same operand values, a `next` and a `pop` that read two of its
; destinations, the `pop` count summed into $7, and a counted branch.
; Every iteration repeats the block's gates over unchanged values, so the
; default `adaptive` register file promotes to interned at the end of its
; first 128-gate probe window. Run it at 16 ways:
;   tangled run examples/asm/gate_reuse.s --ways 16 --metrics-out m.json
had @2,0
had @3,1
had @4,2
had @5,3
had @6,4
had @7,5
had @8,6
had @9,7
li $5,100
lex $6,-1
lex $7,0
loop: and @10,@2,@3
xor @11,@4,@5
or @12,@6,@7
cnot @13,@8
ccnot @14,@2,@5
not @12
cswap @15,@16,@2
next $1,@14
pop $1,@11
add $7,$1
add $5,$6
brt $5,loop
sys
