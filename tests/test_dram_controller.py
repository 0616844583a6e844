"""Tests for repro.dram.controller, address mapping and the energy model."""

import pytest

from repro.config import HBM2Config
from repro.dram import (AddressMapper, Command, CommandRun, CommandType,
                        EnergyModel, EnergyParams, MemoryController,
                        TimingParams, count_commands)
from repro.errors import AddressError, TimingError


class TestAddressMapper:
    @pytest.fixture
    def mapper(self):
        return AddressMapper(HBM2Config())

    def test_covers_cube_capacity(self, mapper):
        assert mapper.addressable_bytes == HBM2Config().capacity_bytes

    def test_encode_decode_round_trip(self, mapper):
        for coords in ((0, 0, 0, 0, 0), (3, 2, 1, 100, 63),
                       (15, 3, 3, 16383, 63), (7, 1, 2, 4097, 31)):
            ch, bg, ba, row, col = coords
            addr = mapper.encode(ch, bg, ba, row, col)
            dec = mapper.decode(addr)
            assert (dec.channel, dec.bankgroup, dec.bank, dec.row,
                    dec.column) == coords

    def test_flat_bank_index(self, mapper):
        dec = mapper.decode(mapper.encode(0, 2, 3, 0, 0))
        assert dec.flat_bank == 11

    def test_offset_within_column(self, mapper):
        base = mapper.encode(1, 1, 1, 1, 1)
        assert mapper.encode(1, 1, 1, 1, 1, offset=8) == base + 8

    def test_address_out_of_range(self, mapper):
        with pytest.raises(AddressError):
            mapper.decode(mapper.addressable_bytes)
        with pytest.raises(AddressError):
            mapper.decode(-1)

    def test_encode_rejects_bad_fields(self, mapper):
        with pytest.raises(AddressError):
            mapper.encode(16, 0, 0, 0, 0)
        with pytest.raises(AddressError):
            mapper.encode(0, 0, 0, 0, 64)
        with pytest.raises(AddressError):
            mapper.encode(0, 0, 0, 0, 0, offset=16)

    def test_bad_mapping_strings(self):
        import dataclasses
        with pytest.raises(AddressError, match="unknown"):
            AddressMapper(dataclasses.replace(
                HBM2Config(), address_mapping="zzrorabgbachco"))
        with pytest.raises(AddressError, match="twice"):
            AddressMapper(dataclasses.replace(
                HBM2Config(), address_mapping="roro bgbachco".replace(" ", "")))
        with pytest.raises(AddressError, match="misses"):
            AddressMapper(dataclasses.replace(
                HBM2Config(), address_mapping="robgba"))


def _row_trace(kind_act, kind_col, kind_pre, banks, reads=4, channel=0):
    trace = []
    for b in banks:
        trace.append(Command(kind_act, channel=channel, bank=b, row=1))
        for c in range(reads):
            trace.append(Command(kind_col, channel=channel, bank=b,
                                 row=1, col=c))
        trace.append(Command(kind_pre, channel=channel, bank=b))
    return trace


class TestMemoryController:
    def test_empty_trace(self):
        result = MemoryController().run([])
        assert result.total_cycles == 0
        assert result.command_total == 0

    def test_counts_and_totals(self):
        trace = _row_trace(CommandType.ACT, CommandType.RD,
                           CommandType.PRE, banks=range(4))
        result = MemoryController(enable_refresh=False).run(trace)
        assert result.command_total == len(trace)
        assert result.counts[CommandType.ACT] == 4
        assert result.counts[CommandType.RD] == 16
        assert result.row_commands == 8
        assert result.column_commands == 16

    def test_channels_run_in_parallel(self):
        one = _row_trace(CommandType.ACT, CommandType.RD,
                         CommandType.PRE, banks=range(8), channel=0)
        controller = MemoryController(enable_refresh=False)
        single = controller.run(one).total_cycles
        two = one + _row_trace(CommandType.ACT, CommandType.RD,
                               CommandType.PRE, banks=range(8), channel=1)
        both = MemoryController(enable_refresh=False).run(two)
        # Same work on a second channel costs (almost) no extra time.
        assert both.total_cycles == pytest.approx(single, abs=2)

    def test_all_bank_trace_faster_than_per_bank(self):
        ab = []
        ab.append(Command(CommandType.ACT_AB, row=1))
        for c in range(8):
            ab.append(Command(CommandType.RD_AB, row=1, col=c))
        ab.append(Command(CommandType.PRE_AB))
        pb = _row_trace(CommandType.ACT, CommandType.RD, CommandType.PRE,
                        banks=range(16), reads=8)
        ctrl = MemoryController(enable_refresh=False)
        t_ab = ctrl.run(ab).total_cycles
        t_pb = MemoryController(enable_refresh=False).run(pb).total_cycles
        assert t_pb > 4 * t_ab

    def test_rejects_out_of_range_channel(self):
        with pytest.raises(TimingError):
            MemoryController(num_channels=2).run(
                [Command(CommandType.ACT, channel=5, bank=0, row=0)])

    def test_seconds_conversion(self):
        trace = [Command(CommandType.ACT_AB, row=0)]
        result = MemoryController(enable_refresh=False).run(trace)
        assert result.seconds(TimingParams()) == pytest.approx(
            result.total_cycles * 1e-9)

    def test_tag_cycle_attribution(self):
        trace = [Command(CommandType.ACT_AB, row=0, tag="open"),
                 Command(CommandType.RD_AB, row=0, tag="stream"),
                 Command(CommandType.RD_AB, row=0, col=1, tag="stream")]
        result = MemoryController(enable_refresh=False).run(trace)
        assert set(result.tag_cycles) == {"open", "stream"}
        assert result.tag_cycles["stream"] > 0

    def test_host_tagged_columns_charge_external_energy(self):
        """Host-tagged column commands are tallied in the scheduling
        walk, runs by their count; row commands and other tags are not."""
        stage = Command(CommandType.WR, bank=2, row=0, tag="stage_x")
        trace = [Command(CommandType.ACT, bank=2, row=0, tag="stage_x"),
                 stage, CommandRun(stage, 5),
                 Command(CommandType.RD, bank=2, row=0, tag="other"),
                 Command(CommandType.PRE, bank=2)]
        controller = MemoryController(enable_refresh=False)
        result = controller.run(trace, with_energy=True,
                                host_tags=frozenset({"stage_x"}))
        assert result.energy.external_pj == \
            6 * EnergyParams().external_io_pj
        untagged = controller.run(trace, with_energy=True)
        assert untagged.energy.external_pj == 0

    def test_count_commands_without_scheduling(self):
        trace = _row_trace(CommandType.ACT, CommandType.RD,
                           CommandType.PRE, banks=range(2))
        counts = count_commands(trace)
        assert counts[CommandType.ACT] == 2
        assert counts[CommandType.RD] == 8


class TestEnergyModel:
    def test_all_bank_charges_every_bank(self):
        model = EnergyModel()
        counts = {CommandType.ACT_AB: 1, CommandType.RD_AB: 2}
        report = model.command_energy(counts, banks_per_channel=16)
        p = EnergyParams()
        assert report.activation_pj == pytest.approx(16 * p.act_pre_pj)
        assert report.read_pj == pytest.approx(32 * p.read_internal_pj)

    def test_external_traffic_energy(self):
        model = EnergyModel()
        report = model.command_energy({}, host_column_traffic=10)
        assert report.external_pj == pytest.approx(
            10 * EnergyParams().external_io_pj)

    def test_background_scales_with_time(self):
        model = EnergyModel()
        r1 = model.add_background(model.command_energy({}), 1000)
        r2 = model.add_background(model.command_energy({}), 2000)
        assert r2.background_pj == pytest.approx(2 * r1.background_pj)

    def test_alu_energy_scales_by_precision(self):
        model = EnergyModel()
        r_int8 = model.add_alu(model.command_energy({}), 100, "int8")
        r_fp64 = model.add_alu(model.command_energy({}), 100, "fp64")
        assert r_fp64.alu_pj > 10 * r_int8.alu_pj

    def test_average_power(self):
        model = EnergyModel()
        report = model.add_background(model.command_energy({}), 10 ** 6)
        watts = report.average_power_watts(10 ** 6, TimingParams())
        # background power per channel over one channel of time
        expected = EnergyParams().background_mw_per_channel * 1e-3
        assert watts == pytest.approx(expected, rel=1e-6)

    def test_controller_energy_integration(self):
        trace = [Command(CommandType.ACT_AB, row=0),
                 Command(CommandType.RD_AB, row=0),
                 Command(CommandType.PRE_AB)]
        result = MemoryController(enable_refresh=False).run(
            trace, with_energy=True, alu_operations=50, precision="fp32")
        assert result.energy is not None
        assert result.energy.total_pj > 0
        assert result.energy.alu_pj > 0
