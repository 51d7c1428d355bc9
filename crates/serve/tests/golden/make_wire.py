#!/usr/bin/env python3
"""Writes replies.wire, the fixed request stream of the golden reply test.

The stream covers every query kind in both access modes, a duplicated
query, `delta_s` spelled `0.0` and `-0.0`, an invalid `players: 0`, a
garbage frame, invalid UTF-8, an oversized length prefix followed by its
payload (the reader resyncs past it), a second batch that hits the reply
cache, an empty batch, and a truncated tail.

replies.bin holds the reply bytes `served` writes for it:

    python3 crates/serve/tests/golden/make_wire.py
    served < crates/serve/tests/golden/replies.wire > crates/serve/tests/golden/replies.bin
"""
import os
import struct

MAX_FRAME_LEN = 1 << 20


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def batch(requests) -> bytes:
    body = ",".join('{"id":%d,"query":%s}' % (rid, query) for rid, query in requests)
    return frame(('{"requests":[%s]}' % body).encode())


def queries(mode):
    return [
        '{"WcStar":{"players":5,"mode":"%s","w_max":512}}' % mode,
        '{"EdcaWcStar":{"players":4,"mode":"%s","txop":2,"w_max":256}}' % mode,
        '{"NeInterval":{"players":6,"mode":"%s","w_max":512}}' % mode,
        '{"DeviationPayoff":{"players":5,"mode":"%s","w_star":79,"w_dev":20,'
        '"reaction_stages":1,"delta_s":0.5}}' % mode,
        '{"RobustnessCell":{"players":4,"mode":"%s","window":32,"reaction_stages":2,'
        '"epsilon":1e-9}}' % mode,
    ]


def deviation(delta_s):
    return ('{"DeviationPayoff":{"players":5,"mode":"Basic","w_star":79,"w_dev":20,'
            '"reaction_stages":2,"delta_s":%s}}' % delta_s)


def main():
    kinds = queries("Basic") + queries("RtsCts")
    first = list(enumerate(kinds))
    first += [
        (18446744073709551615, kinds[0]),  # duplicate of request 0, id u64::MAX
        (20, deviation("0.0")),
        (21, deviation("-0.0")),
        (22, '{"WcStar":{"players":0,"mode":"Basic","w_max":512}}'),
    ]
    wire = batch(first)
    wire += frame(b"definitely not a batch")
    wire += frame(b"\xff\xfe")
    wire += struct.pack(">I", MAX_FRAME_LEN + 1) + b"\0" * (MAX_FRAME_LEN + 1)
    wire += batch([
        (30, kinds[3]),
        (31, deviation("-0.0")),
        (32, '{"WcStar":{"players":7,"mode":"RtsCts","w_max":512}}'),
        (33, kinds[9]),
        (34, '{"NeInterval":{"players":5,"mode":"Basic","w_max":512}}'),  # WcStar 0's fields
    ])
    wire += batch([])
    wire += struct.pack(">I", 64) + b'{"requests":'
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "replies.wire")
    with open(path, "wb") as out:
        out.write(wire)


if __name__ == "__main__":
    main()
