"""Generated from PLDL by repro.lang.translate — do not edit."""

from repro.geometry import Direction
from repro.lang.runtime import Runtime

NORTH = Direction.NORTH
SOUTH = Direction.SOUTH
EAST = Direction.EAST
WEST = Direction.WEST

def ContactRow(rt, layer, W=None, L=None):
    """Generated from entity ContactRow."""
    obj = rt.begin("ContactRow", layer=layer, W=W, L=L)
    try:
        rt.INBOX(obj, layer, W, L)
        rt.INBOX(obj, 'metal1')
        rt.ARRAY(obj, 'contact')
    finally:
        rt.end(obj)
    return obj

def Snake(rt, NSEG=None, WIDE=None):
    """Generated from entity Snake."""
    obj = rt.begin("Snake", NSEG=NSEG, WIDE=WIDE)
    try:
        for i in rt.frange(0.0, rt.arith('-', NSEG, 1.0), 1.0):
            rt.WIRE(obj, 'poly', 0.0, rt.arith('*', i, 4.0), 12.0, rt.arith('*', i, 4.0), 1.0)
            if rt.arith('<', i, rt.arith('-', NSEG, 1.0)):
                if (rt.arith('/', i, 2.0) == rt.arith('/', i, 2.0)):
                    rt.WIRE(obj, 'poly', 12.0, rt.arith('*', i, 4.0), 12.0, rt.arith('+', rt.arith('*', i, 4.0), 4.0), 1.0)
        def _alt1_branch0():
            if (WIDE == 0.0):
                rt.ERROR('narrow variant requested')
            rt.WIRE(obj, 'metal1', 0.0, 0.0, 0.0, rt.arith('*', rt.arith('-', NSEG, 1.0), 4.0), 3.0)
        def _alt1_branch1():
            rt.WIRE(obj, 'metal1', 0.0, 0.0, 0.0, rt.arith('*', rt.arith('-', NSEG, 1.0), 4.0), 1.5)
        def _alt1_save():
            _state = {}
            try:
                _state['NSEG'] = NSEG
            except NameError:
                pass
            try:
                _state['WIDE'] = WIDE
            except NameError:
                pass
            return rt.alt_state(_state)
        def _alt1_restore(_state):
            nonlocal NSEG, WIDE
            NSEG = _state.get('NSEG')
            WIDE = _state.get('WIDE')
        rt.alt(obj, [_alt1_branch0, _alt1_branch1], save=_alt1_save, restore=_alt1_restore)
    finally:
        rt.end(obj)
    return obj

def main(rt):
    """Top-level calling sequence of the source file."""
    narrow = Snake(rt, NSEG=5.0, WIDE=0.0)
    wide = Snake(rt, NSEG=5.0, WIDE=1.0)
