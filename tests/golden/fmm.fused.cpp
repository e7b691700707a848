void _fuse__F0_F1(FmmNode* _r, unsigned int active_flags) {
  FmmNode* _r_f0 = (FmmNode*)(_r);
  FmmNode* _r_f1 = (FmmNode*)(_r);
}

void _fuse__F2_F3(FmmCell* _r, unsigned int active_flags) {
  FmmCell* _r_f0 = (FmmCell*)(_r);
  FmmCell* _r_f1 = (FmmCell*)(_r);
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Left->__stub0(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Right->__stub0(call_flags);
  }
  if (active_flags & 0b1) {
    _r_f0->Mass = (_r_f0->Left->Mass + _r_f0->Right->Mass);
  }
  if (active_flags & 0b1) {
    _r_f0->Center = 0.0;
  }
  if (active_flags & 0b1) {
    if ((_r_f0->Mass > 0.0)) {
      _r_f0->Center = (((_r_f0->Left->Mass * _r_f0->Left->Center) + (_r_f0->Right->Mass * _r_f0->Right->Center)) / _r_f0->Mass);
    }
  }
  if (active_flags & 0b10) {
    double _t1_dist = (_r_f1->Right->Center - _r_f1->Left->Center);
  }
  if (active_flags & 0b10) {
    if ((_t1_dist < 0.0)) {
      _t1_dist = (0.0 - _t1_dist);
    }
  }
  if (active_flags & 0b10) {
    double _t1_interaction = 0.0;
  }
  if (active_flags & 0b10) {
    if ((_t1_dist > 0.0001)) {
      _t1_interaction = ((_r_f1->Left->Mass * _r_f1->Right->Mass) / _t1_dist);
    }
  }
  if (active_flags & 0b10) {
    _r_f1->Potential = ((_r_f1->Left->Potential + _r_f1->Right->Potential) + _t1_interaction);
  }
}

void _fuse__F4_F5(FmmBody* _r, unsigned int active_flags) {
  FmmBody* _r_f0 = (FmmBody*)(_r);
  FmmBody* _r_f1 = (FmmBody*)(_r);
  if (active_flags & 0b1) {
    _r_f0->Mass = _r_f0->Mass;
  }
  if (active_flags & 0b1) {
    _r_f0->Center = _r_f0->Center;
  }
  if (active_flags & 0b10) {
    _r_f1->Potential = (_r_f1->SelfPotential * _r_f1->Mass);
  }
}

void FmmNode::__stub0(unsigned int active_flags) { _fuse__F0_F1((FmmNode*) this, active_flags); }
void FmmCell::__stub0(unsigned int active_flags) { _fuse__F2_F3((FmmCell*) this, active_flags); }
void FmmBody::__stub0(unsigned int active_flags) { _fuse__F4_F5((FmmBody*) this, active_flags); }

