"""Coherence tests: the analytic cost model vs actual wire sizes.

The F3 analysis is only meaningful if its byte constants match what the
protocol really puts on the air; these tests build the real payloads
and compare them against :class:`repro.analysis.overhead.CostModel`.
"""

from repro.analysis.overhead import CostModel
from repro.core.field import DEFAULT_FIELD
from repro.crypto.keys import PairwiseKeyScheme
from repro.crypto.linksec import LinkSecurity
from repro.net.packet import HEADER_BYTES, Packet


class TestWireCoherence:
    model = CostModel()

    def test_hello_size(self):
        packet = Packet(src=0, dst=-1, kind="hello", payload={"depth": 3})
        assert packet.size_bytes == self.model.hello_bytes()

    def test_tag_partial_size(self):
        packet = Packet(
            src=1,
            dst=2,
            kind="tag_partial",
            payload={"components": [1234], "contributors": 7},
        )
        assert packet.size_bytes == self.model.tag_partial_bytes(arity=1)

    def test_share_size(self):
        linksec = LinkSecurity(PairwiseKeyScheme())
        # Field elements exceed 32 bits, so they cost 8 bytes each.
        values = [DEFAULT_FIELD.q - 5, DEFAULT_FIELD.q - 9]
        ciphertext = linksec.seal(1, 2, values)
        packet = Packet(
            src=1,
            dst=2,
            kind="share",
            payload={"origin": 1, "dst": 2, "ct": ciphertext},
        )
        assert packet.size_bytes == self.model.share_bytes(arity=2)

    def test_fvalue_size(self):
        packet = Packet(
            src=1,
            dst=-1,
            kind="fvalue",
            payload={
                "cluster": 7,
                "seed": 2,
                "member": 1,
                "f": [DEFAULT_FIELD.q - 1],
            },
        )
        assert packet.size_bytes == self.model.fvalue_bytes(arity=1)

    def test_ack_size(self):
        packet = Packet(src=1, dst=2, kind="report_ack", payload={"cluster": 9})
        assert packet.size_bytes == self.model.ack_bytes()

    def test_report_size_tracks_children(self):
        def report_packet(children):
            return Packet(
                src=1,
                dst=2,
                kind="report",
                payload={
                    "cluster": 1,
                    "own": [100],
                    "children": children,
                    "total": [100 + sum(c[1][0] for c in children)],
                    "contributors": 3,
                    "ids": [1] + [c[0] for c in children],
                },
            )

        no_children = report_packet([])
        one_child = report_packet([[5, [50], 3]])
        # Every extra child adds its id + arity totals + contributors +
        # the entry in ids: (1 + 1 + 1 + 1) * 4 bytes at arity 1.
        per_child = one_child.size_bytes - no_children.size_bytes
        assert per_child == (1 + 1 + 1 + 1) * 4

    def test_header_size_consistent(self):
        assert HEADER_BYTES == self.model.header
