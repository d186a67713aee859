"""Generated from PLDL by repro.lang.translate — do not edit."""

from repro.geometry import Direction

NORTH = Direction.NORTH
SOUTH = Direction.SOUTH
EAST = Direction.EAST
WEST = Direction.WEST

def ContactRow(rt, layer, W=None, L=None):
    """Generated from entity ContactRow."""
    v = {'layer': layer, 'W': W, 'L': L}
    obj = rt.begin('ContactRow', v)
    try:
        rt.INBOX(obj, v['layer'], v['W'], v['L'])  # line 6
        rt.step(6, obj)
        rt.INBOX(obj, 'metal1')  # line 7
        rt.step(7, obj)
        rt.ARRAY(obj, 'contact')  # line 8
        rt.step(8, obj)
    finally:
        rt.end()
    return obj

def Snake(rt, NSEG=None, WIDE=None):
    """Generated from entity Snake."""
    v = {'NSEG': NSEG, 'WIDE': WIDE}
    obj = rt.begin('Snake', v)
    try:
        for v['i'] in rt.frange(0.0, rt.arith('-', v['NSEG'], 1.0), 1.0):  # line 12
            rt.WIRE(obj, 'poly', 0.0, rt.arith('*', v['i'], 4.0), 12.0, rt.arith('*', v['i'], 4.0), 1.0)  # line 13
            rt.step(13, obj)
            if rt.arith('<', v['i'], rt.arith('-', v['NSEG'], 1.0)):  # line 14
                if (rt.arith('/', v['i'], 2.0) == rt.arith('/', v['i'], 2.0)):  # line 15
                    rt.WIRE(obj, 'poly', 12.0, rt.arith('*', v['i'], 4.0), 12.0, rt.arith('+', rt.arith('*', v['i'], 4.0), 4.0), 1.0)  # line 16
                    rt.step(16, obj)
                rt.step(15, obj)
            rt.step(14, obj)
        rt.step(12, obj)
        def _alt1_branch0():
            if (v['WIDE'] == 0.0):  # line 22
                rt.ERROR('narrow variant requested')  # line 23
                rt.step(23, obj)
            rt.step(22, obj)
            rt.WIRE(obj, 'metal1', 0.0, 0.0, 0.0, rt.arith('*', rt.arith('-', v['NSEG'], 1.0), 4.0), 3.0)  # line 25
            rt.step(25, obj)
        def _alt1_branch1():
            rt.WIRE(obj, 'metal1', 0.0, 0.0, 0.0, rt.arith('*', rt.arith('-', v['NSEG'], 1.0), 4.0), 1.5)  # line 27
            rt.step(27, obj)
        rt.alt(obj, [_alt1_branch0, _alt1_branch1], v, ('NSEG', 'WIDE'), 20)  # line 20
        rt.step(20, obj)
    finally:
        rt.end()
    return obj

def main(rt):
    """Top-level calling sequence; returns its bindings."""
    v = {}
    v['narrow'] = Snake(rt, NSEG=5.0, WIDE=0.0)  # line 31
    rt.step(31, None)
    v['wide'] = Snake(rt, NSEG=5.0, WIDE=1.0)  # line 32
    rt.step(32, None)
    return v
