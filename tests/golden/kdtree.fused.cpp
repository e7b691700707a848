void _fuse__F3_F3_F2_F6_F6_F6_F6_F1_F7_F4(KdNode* _r, unsigned int active_flags) {
  KdNode* _r_f0 = (KdNode*)(_r);
  KdNode* _r_f1 = (KdNode*)(_r);
  KdNode* _r_f2 = (KdNode*)(_r);
  KdNode* _r_f3 = (KdNode*)(_r);
  KdNode* _r_f4 = (KdNode*)(_r);
  KdNode* _r_f5 = (KdNode*)(_r);
  KdNode* _r_f6 = (KdNode*)(_r);
  KdNode* _r_f7 = (KdNode*)(_r);
  KdNode* _r_f8 = (KdNode*)(_r);
  KdNode* _r_f9 = (KdNode*)(_r);
}

void _fuse__F13_F13_F12_F16_F16_F16_F16_F11_F17_F14(KdInner* _r, unsigned int active_flags) {
  KdInner* _r_f0 = (KdInner*)(_r);
  KdInner* _r_f1 = (KdInner*)(_r);
  KdInner* _r_f2 = (KdInner*)(_r);
  KdInner* _r_f3 = (KdInner*)(_r);
  KdInner* _r_f4 = (KdInner*)(_r);
  KdInner* _r_f5 = (KdInner*)(_r);
  KdInner* _r_f6 = (KdInner*)(_r);
  KdInner* _r_f7 = (KdInner*)(_r);
  KdInner* _r_f8 = (KdInner*)(_r);
  KdInner* _r_f9 = (KdInner*)(_r);
  if (active_flags & 0b11111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Left->__stub1(call_flags);
  }
  if (active_flags & 0b11111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Right->__stub1(call_flags);
  }
  if (active_flags & 0b1100000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 9));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 8));
    _r_f8->Left->__stub2(call_flags);
  }
  if (active_flags & 0b1100000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 9));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 8));
    _r_f8->Right->__stub2(call_flags);
  }
}

void _fuse__F3_F3_F2_F6_F6_F6_F6_F1(KdNode* _r, unsigned int active_flags) {
  KdNode* _r_f0 = (KdNode*)(_r);
  KdNode* _r_f1 = (KdNode*)(_r);
  KdNode* _r_f2 = (KdNode*)(_r);
  KdNode* _r_f3 = (KdNode*)(_r);
  KdNode* _r_f4 = (KdNode*)(_r);
  KdNode* _r_f5 = (KdNode*)(_r);
  KdNode* _r_f6 = (KdNode*)(_r);
  KdNode* _r_f7 = (KdNode*)(_r);
}

void _fuse__F13_F13_F12_F16_F16_F16_F16_F11(KdInner* _r, unsigned int active_flags) {
  KdInner* _r_f0 = (KdInner*)(_r);
  KdInner* _r_f1 = (KdInner*)(_r);
  KdInner* _r_f2 = (KdInner*)(_r);
  KdInner* _r_f3 = (KdInner*)(_r);
  KdInner* _r_f4 = (KdInner*)(_r);
  KdInner* _r_f5 = (KdInner*)(_r);
  KdInner* _r_f6 = (KdInner*)(_r);
  KdInner* _r_f7 = (KdInner*)(_r);
  if (active_flags & 0b11111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Left->__stub1(call_flags);
  }
  if (active_flags & 0b11111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Right->__stub1(call_flags);
  }
}

void _fuse__F23_F23_F22_F26_F26_F26_F26_F21(KdLeaf* _r, unsigned int active_flags) {
  KdLeaf* _r_f0 = (KdLeaf*)(_r);
  KdLeaf* _r_f1 = (KdLeaf*)(_r);
  KdLeaf* _r_f2 = (KdLeaf*)(_r);
  KdLeaf* _r_f3 = (KdLeaf*)(_r);
  KdLeaf* _r_f4 = (KdLeaf*)(_r);
  KdLeaf* _r_f5 = (KdLeaf*)(_r);
  KdLeaf* _r_f6 = (KdLeaf*)(_r);
  KdLeaf* _r_f7 = (KdLeaf*)(_r);
  if (active_flags & 0b1) {
    _r_f0->C0 = _r_f0->C1;
  }
  if (active_flags & 0b1) {
    _r_f0->C1 = (2.0 * _r_f0->C2);
  }
  if (active_flags & 0b1) {
    _r_f0->C2 = (3.0 * _r_f0->C3);
  }
  if (active_flags & 0b1) {
    _r_f0->C3 = 0.0;
  }
  if (active_flags & 0b10) {
    _r_f1->C0 = _r_f1->C1;
  }
  if (active_flags & 0b10) {
    _r_f1->C1 = (2.0 * _r_f1->C2);
  }
  if (active_flags & 0b10) {
    _r_f1->C2 = (3.0 * _r_f1->C3);
  }
  if (active_flags & 0b10) {
    _r_f1->C3 = 0.0;
  }
  if (active_flags & 0b100) {
    double _t2_a0 = _r_f2->C0;
  }
  if (active_flags & 0b100) {
    double _t2_a1 = _r_f2->C1;
  }
  if (active_flags & 0b100) {
    double _t2_a2 = _r_f2->C2;
  }
  if (active_flags & 0b100) {
    double _t2_a3 = _r_f2->C3;
  }
  if (active_flags & 0b100) {
    _r_f2->C0 = (_t2_a0 * _t2_a0);
  }
  if (active_flags & 0b100) {
    _r_f2->C1 = ((2.0 * _t2_a0) * _t2_a1);
  }
  if (active_flags & 0b100) {
    _r_f2->C2 = (((2.0 * _t2_a0) * _t2_a2) + (_t2_a1 * _t2_a1));
  }
  if (active_flags & 0b100) {
    _r_f2->C3 = (((2.0 * _t2_a0) * _t2_a3) + ((2.0 * _t2_a1) * _t2_a2));
  }
  if (active_flags & 0b1000) {
    if (((_r_f3->Lo >= _t3_a) && (_r_f3->Hi <= _t3_b))) {
      _r_f3->C3 = _r_f3->C2;
      _r_f3->C2 = _r_f3->C1;
      _r_f3->C1 = _r_f3->C0;
      _r_f3->C0 = 0.0;
    }
  }
  if (active_flags & 0b10000) {
    if (((_r_f4->Lo >= _t4_a) && (_r_f4->Hi <= _t4_b))) {
      _r_f4->C3 = _r_f4->C2;
      _r_f4->C2 = _r_f4->C1;
      _r_f4->C1 = _r_f4->C0;
      _r_f4->C0 = 0.0;
    }
  }
  if (active_flags & 0b100000) {
    if (((_r_f5->Lo >= _t5_a) && (_r_f5->Hi <= _t5_b))) {
      _r_f5->C3 = _r_f5->C2;
      _r_f5->C2 = _r_f5->C1;
      _r_f5->C1 = _r_f5->C0;
      _r_f5->C0 = 0.0;
    }
  }
  if (active_flags & 0b1000000) {
    if (((_r_f6->Lo >= _t6_a) && (_r_f6->Hi <= _t6_b))) {
      _r_f6->C3 = _r_f6->C2;
      _r_f6->C2 = _r_f6->C1;
      _r_f6->C1 = _r_f6->C0;
      _r_f6->C0 = 0.0;
    }
  }
  if (active_flags & 0b10000000) {
    _r_f7->C0 = (_r_f7->C0 + _t7_c);
  }
}

void _fuse__F7_F4(KdNode* _r, unsigned int active_flags) {
  KdNode* _r_f0 = (KdNode*)(_r);
  KdNode* _r_f1 = (KdNode*)(_r);
}

void _fuse__F17_F14(KdInner* _r, unsigned int active_flags) {
  KdInner* _r_f0 = (KdInner*)(_r);
  KdInner* _r_f1 = (KdInner*)(_r);
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Left->__stub2(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Right->__stub2(call_flags);
  }
}

void _fuse__F27_F24(KdLeaf* _r, unsigned int active_flags) {
  KdLeaf* _r_f0 = (KdLeaf*)(_r);
  KdLeaf* _r_f1 = (KdLeaf*)(_r);
  if (active_flags & 0b1) {
    if (((_r_f0->Lo >= _t0_a) && (_r_f0->Hi <= _t0_b))) {
      _r_f0->C1 = (_r_f0->C1 + 1.0);
    }
  }
  if (active_flags & 0b10) {
    if (((_r_f1->Lo >= _t1_a) && (_r_f1->Hi <= _t1_b))) {
      _r_f1->C0 = (_r_f1->C0 + _t1_c);
    }
  }
}

void _fuse__F23_F23_F22_F26_F26_F26_F26_F21_F27_F24(KdLeaf* _r, unsigned int active_flags) {
  KdLeaf* _r_f0 = (KdLeaf*)(_r);
  KdLeaf* _r_f1 = (KdLeaf*)(_r);
  KdLeaf* _r_f2 = (KdLeaf*)(_r);
  KdLeaf* _r_f3 = (KdLeaf*)(_r);
  KdLeaf* _r_f4 = (KdLeaf*)(_r);
  KdLeaf* _r_f5 = (KdLeaf*)(_r);
  KdLeaf* _r_f6 = (KdLeaf*)(_r);
  KdLeaf* _r_f7 = (KdLeaf*)(_r);
  KdLeaf* _r_f8 = (KdLeaf*)(_r);
  KdLeaf* _r_f9 = (KdLeaf*)(_r);
  if (active_flags & 0b1) {
    _r_f0->C0 = _r_f0->C1;
  }
  if (active_flags & 0b1) {
    _r_f0->C1 = (2.0 * _r_f0->C2);
  }
  if (active_flags & 0b1) {
    _r_f0->C2 = (3.0 * _r_f0->C3);
  }
  if (active_flags & 0b1) {
    _r_f0->C3 = 0.0;
  }
  if (active_flags & 0b10) {
    _r_f1->C0 = _r_f1->C1;
  }
  if (active_flags & 0b10) {
    _r_f1->C1 = (2.0 * _r_f1->C2);
  }
  if (active_flags & 0b10) {
    _r_f1->C2 = (3.0 * _r_f1->C3);
  }
  if (active_flags & 0b10) {
    _r_f1->C3 = 0.0;
  }
  if (active_flags & 0b100) {
    double _t2_a0 = _r_f2->C0;
  }
  if (active_flags & 0b100) {
    double _t2_a1 = _r_f2->C1;
  }
  if (active_flags & 0b100) {
    double _t2_a2 = _r_f2->C2;
  }
  if (active_flags & 0b100) {
    double _t2_a3 = _r_f2->C3;
  }
  if (active_flags & 0b100) {
    _r_f2->C0 = (_t2_a0 * _t2_a0);
  }
  if (active_flags & 0b100) {
    _r_f2->C1 = ((2.0 * _t2_a0) * _t2_a1);
  }
  if (active_flags & 0b100) {
    _r_f2->C2 = (((2.0 * _t2_a0) * _t2_a2) + (_t2_a1 * _t2_a1));
  }
  if (active_flags & 0b100) {
    _r_f2->C3 = (((2.0 * _t2_a0) * _t2_a3) + ((2.0 * _t2_a1) * _t2_a2));
  }
  if (active_flags & 0b1000) {
    if (((_r_f3->Lo >= _t3_a) && (_r_f3->Hi <= _t3_b))) {
      _r_f3->C3 = _r_f3->C2;
      _r_f3->C2 = _r_f3->C1;
      _r_f3->C1 = _r_f3->C0;
      _r_f3->C0 = 0.0;
    }
  }
  if (active_flags & 0b10000) {
    if (((_r_f4->Lo >= _t4_a) && (_r_f4->Hi <= _t4_b))) {
      _r_f4->C3 = _r_f4->C2;
      _r_f4->C2 = _r_f4->C1;
      _r_f4->C1 = _r_f4->C0;
      _r_f4->C0 = 0.0;
    }
  }
  if (active_flags & 0b100000) {
    if (((_r_f5->Lo >= _t5_a) && (_r_f5->Hi <= _t5_b))) {
      _r_f5->C3 = _r_f5->C2;
      _r_f5->C2 = _r_f5->C1;
      _r_f5->C1 = _r_f5->C0;
      _r_f5->C0 = 0.0;
    }
  }
  if (active_flags & 0b1000000) {
    if (((_r_f6->Lo >= _t6_a) && (_r_f6->Hi <= _t6_b))) {
      _r_f6->C3 = _r_f6->C2;
      _r_f6->C2 = _r_f6->C1;
      _r_f6->C1 = _r_f6->C0;
      _r_f6->C0 = 0.0;
    }
  }
  if (active_flags & 0b10000000) {
    _r_f7->C0 = (_r_f7->C0 + _t7_c);
  }
  if (active_flags & 0b100000000) {
    if (((_r_f8->Lo >= _t8_a) && (_r_f8->Hi <= _t8_b))) {
      _r_f8->C1 = (_r_f8->C1 + 1.0);
    }
  }
  if (active_flags & 0b1000000000) {
    if (((_r_f9->Lo >= _t9_a) && (_r_f9->Hi <= _t9_b))) {
      _r_f9->C0 = (_r_f9->C0 + _t9_c);
    }
  }
}

void KdNode::__stub0(unsigned int active_flags) { _fuse__F3_F3_F2_F6_F6_F6_F6_F1_F7_F4((KdNode*) this, active_flags); }
void KdInner::__stub0(unsigned int active_flags) { _fuse__F13_F13_F12_F16_F16_F16_F16_F11_F17_F14((KdInner*) this, active_flags); }
void KdLeaf::__stub0(unsigned int active_flags) { _fuse__F23_F23_F22_F26_F26_F26_F26_F21_F27_F24((KdLeaf*) this, active_flags); }

void KdNode::__stub1(unsigned int active_flags) { _fuse__F3_F3_F2_F6_F6_F6_F6_F1((KdNode*) this, active_flags); }
void KdInner::__stub1(unsigned int active_flags) { _fuse__F13_F13_F12_F16_F16_F16_F16_F11((KdInner*) this, active_flags); }
void KdLeaf::__stub1(unsigned int active_flags) { _fuse__F23_F23_F22_F26_F26_F26_F26_F21((KdLeaf*) this, active_flags); }

void KdNode::__stub2(unsigned int active_flags) { _fuse__F7_F4((KdNode*) this, active_flags); }
void KdInner::__stub2(unsigned int active_flags) { _fuse__F17_F14((KdInner*) this, active_flags); }
void KdLeaf::__stub2(unsigned int active_flags) { _fuse__F27_F24((KdLeaf*) this, active_flags); }

