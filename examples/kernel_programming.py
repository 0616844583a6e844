#!/usr/bin/env python
"""Programming pSyncPIM by hand: assembly, beats and predicated execution.

The paper's kernels are hand-written PIM assembly (§VII-A). This example
drops below the runtime API to show the machine itself:

1. write a kernel in pSyncPIM assembly and inspect its 32-bit encoding,
2. place data into bank regions and drive the lock-step engine with a
   broadcast transaction stream,
3. watch conditional exit in action — banks with less data retire early
   while the lock-step stream keeps flowing,
4. price the equivalent command schedule under HBM2 timing.

Run:  python examples/kernel_programming.py
"""

import numpy as np

from repro.dram import Command, CommandType, MemoryController
from repro.isa import Program, assemble
from repro.pim import Beat, LaneEngine, Mode, padded_triples


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A sparse AXPY kernel in pSyncPIM assembly (cf. Table III SpAXPY).
    # ------------------------------------------------------------------
    source = """
    ; y[i] += alpha * x_sp[i]   (alpha pre-broadcast into SRF)
outer:
    SPMOV  SPVQ0, BANK          value=fp64        ; load a triple group
inner:
    SSPV   SPVQ1, SRF, SPVQ0    binary=mul        ; alpha * value
    SPVDV  BANK, SPVQ1          binary=add        ; y[idx] += product
    JUMP   inner order=0 count=4
    CEXIT  SPVQ0|SPVQ1                            ; retire when drained
    JUMP   outer order=1 count=2
    EXIT
"""
    program = assemble(source, name="spaxpy_demo")
    print(program.disassemble())
    words = program.encode_words()
    print("\nencoded control register image:")
    for slot, word in enumerate(words):
        print(f"  slot {slot:2d}: {word:#010x}")
    assert Program.decode_words(words) == program

    # ------------------------------------------------------------------
    # 2. Three banks with *uneven* sparse vectors — the pSyncPIM problem.
    # ------------------------------------------------------------------
    engine = LaneEngine(num_banks=3)
    counts = [8, 5, 0]  # wildly different workloads per bank
    per_bank = []
    for bank, count in enumerate(counts):
        idx = np.arange(count) * 2  # even positions of this bank's chunk
        vals = np.full(count, float(bank + 1))
        per_bank.append(padded_triples(idx, idx, vals, total=8))
    engine.host_write_triples("xsp", per_bank)
    engine.host_write_dense("y", [np.zeros(16) for _ in range(3)])

    engine.switch_mode(Mode.AB)
    engine.load_program(program)
    engine.broadcast_scalar(2.0)  # alpha, into every bank's SRF
    engine.switch_mode(Mode.AB_PIM)

    def beats():
        for group in range(2):
            yield Beat("xsp", group)
            for _ in range(4):
                yield Beat("y", 0, write=True)

    consumed = engine.run(beats())
    engine.switch_mode(Mode.SB)

    # ------------------------------------------------------------------
    # 3. Conditional exit: every bank retired, each at its own time.
    # ------------------------------------------------------------------
    print(f"\nlock-step stream: {consumed} broadcast transactions, "
          f"{engine.stats.predicated_beats} with some bank retired")
    for bank, count in enumerate(counts):
        print(f"  bank {bank}: {count} elements, "
              f"exited={bool(engine.exited[bank])}")
    for bank, chunk in enumerate(engine.host_read_dense("y")):
        expect = np.zeros(16)
        expect[np.arange(counts[bank]) * 2] = 2.0 * (bank + 1)
        assert np.allclose(chunk, expect), bank
    print("results verified against the reference on every bank")

    # ------------------------------------------------------------------
    # 4. The command schedule the host actually issues, priced on HBM2.
    # ------------------------------------------------------------------
    trace = [Command(CommandType.MODE),
             Command(CommandType.ACT_AB, row=0)]
    trace += [Command(CommandType.WR_AB, row=0, col=c) for c in range(2)]
    trace += [Command(CommandType.PRE_AB), Command(CommandType.MODE)]
    for group in range(2):
        trace.append(Command(CommandType.ACT_AB, row=1))
        trace.append(Command(CommandType.RD_AB, row=1, col=group))
        trace.append(Command(CommandType.PRE_AB))
        trace.append(Command(CommandType.ACT_AB, row=2))
        trace += [Command(CommandType.RD_AB, row=2, col=c)
                  for c in range(2)]
        trace += [Command(CommandType.WR_AB, row=2, col=c)
                  for c in range(2)]
        trace.append(Command(CommandType.PRE_AB))
    trace.append(Command(CommandType.MODE))
    report = MemoryController(enable_refresh=False).run(trace)
    print(f"\nhand-built schedule: {report.command_total} commands, "
          f"{report.total_cycles} DRAM cycles "
          f"({report.total_cycles} ns at 1 GHz)")


if __name__ == "__main__":
    main()
