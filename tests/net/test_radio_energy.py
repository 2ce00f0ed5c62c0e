"""Unit tests for radio parameters and energy accounting."""

import pytest

from repro.errors import DeploymentError, SimulationError
from repro.net.energy import EnergyModel
from repro.net.packet import Packet
from repro.net.radio import RadioParams


class TestRadioParams:
    def test_airtime_scales_with_size(self):
        radio = RadioParams(bitrate_bps=1_000_000, turnaround_s=0.0)
        small = radio.airtime(Packet(src=0, dst=1, kind="x", size_bytes=100))
        large = radio.airtime(Packet(src=0, dst=1, kind="x", size_bytes=200))
        assert large == pytest.approx(2 * small)
        assert small == pytest.approx(800 / 1_000_000)

    def test_turnaround_added(self):
        radio = RadioParams(turnaround_s=0.001)
        airtime = radio.airtime(Packet(src=0, dst=1, kind="x", size_bytes=100))
        assert airtime > 0.001

    def test_propagation_delay_is_tiny_but_positive(self):
        radio = RadioParams()
        delay = radio.propagation_delay(50.0)
        assert 0 < delay < 1e-6

    def test_validation(self):
        with pytest.raises(DeploymentError):
            RadioParams(range_m=0)
        with pytest.raises(DeploymentError):
            RadioParams(bitrate_bps=0)
        with pytest.raises(DeploymentError):
            RadioParams(ambient_loss=1.0)
        with pytest.raises(DeploymentError):
            RadioParams(turnaround_s=-1)


class TestEnergyModel:
    def test_tx_and_rx_accumulate(self):
        model = EnergyModel(tx_j_per_byte=2.0, rx_j_per_byte=1.0)
        model.account_tx(1, 10)
        model.account_rx(1, 10)
        model.account_rx(2, 5)
        assert model.spent(1) == pytest.approx(30.0)
        assert model.spent(2) == pytest.approx(5.0)
        assert model.spent(99) == 0.0

    def test_report_totals(self):
        model = EnergyModel(tx_j_per_byte=1.0, rx_j_per_byte=1.0)
        model.account_tx(1, 10)
        model.account_tx(2, 30)
        report = model.report()
        assert report.total_j == pytest.approx(40.0)
        assert report.max_node_j == pytest.approx(30.0)

    def test_negative_costs_rejected(self):
        with pytest.raises(SimulationError):
            EnergyModel(tx_j_per_byte=-1.0)
