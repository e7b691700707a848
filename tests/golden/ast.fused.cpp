void _fuse__F6_F7_F8_F9_F10(ProgramRoot* _r, unsigned int active_flags) {
  ProgramRoot* _r_f0 = (ProgramRoot*)(_r);
  ProgramRoot* _r_f1 = (ProgramRoot*)(_r);
  ProgramRoot* _r_f2 = (ProgramRoot*)(_r);
  ProgramRoot* _r_f3 = (ProgramRoot*)(_r);
  ProgramRoot* _r_f4 = (ProgramRoot*)(_r);
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Funcs->__stub1(call_flags);
  }
}

void _fuse__F0_F1_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
}

void _fuse__F11_F12_F13_F14_F15(FunctionListInner* _r, unsigned int active_flags) {
  FunctionListInner* _r_f0 = (FunctionListInner*)(_r);
  FunctionListInner* _r_f1 = (FunctionListInner*)(_r);
  FunctionListInner* _r_f2 = (FunctionListInner*)(_r);
  FunctionListInner* _r_f3 = (FunctionListInner*)(_r);
  FunctionListInner* _r_f4 = (FunctionListInner*)(_r);
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->F->__stub2(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub1(call_flags);
  }
}

void _fuse__F16_F17_F18_F19_F20(Function* _r, unsigned int active_flags) {
  Function* _r_f0 = (Function*)(_r);
  Function* _r_f1 = (Function*)(_r);
  Function* _r_f2 = (Function*)(_r);
  Function* _r_f3 = (Function*)(_r);
  Function* _r_f4 = (Function*)(_r);
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Body->__stub3(call_flags);
  }
}

void _fuse__F21_F22_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 3)) {
      int _t0_v = ((IncrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 0;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub4(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 4)) {
      int _t1_v = ((DecrStmt*)(_r_f1->S))->VarId;
      delete _r_f1->S;
      _r_f1->S = new AssignStmt();
      ((AssignStmt*)(_r_f1->S))->kind = 1;
      ((AssignStmt*)(_r_f1->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f1->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f1->S))->Lhs->VarId = _t1_v;
      ((AssignStmt*)(_r_f1->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->VarId = _t1_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b100) {
    int _t2_enabled = 0;
  }
  if (active_flags & 0b100) {
    int _t2_var = 0;
  }
  if (active_flags & 0b100) {
    int _t2_val = 0;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Rhs->kind == 1)) {
        _t2_enabled = 1;
        _t2_var = ((AssignStmt*)(_r_f2->S))->Lhs->VarId;
        _t2_val = ((AssignStmt*)(_r_f2->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub7(call_flags);
  }
  if (active_flags & 0b11110) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    _r_f1->S->__stub54(call_flags);
  }
}

void _fuse__F0(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
}

void _fuse__F27(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub5(call_flags);
  }
}

void _fuse__F44(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub5(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub5(call_flags);
  }
}

void _fuse__F48(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub5(call_flags);
  }
}

void _fuse__F33(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub5(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub6(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub6(call_flags);
  }
}

void _fuse__F21(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 3)) {
      int _t0_v = ((IncrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 0;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub4(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub6(call_flags);
  }
}

void _fuse__F39(ReturnStmt* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub5(call_flags);
  }
}

void _fuse__F0_F1_F3_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
}

void _fuse__F21_F22_F24_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 3)) {
      int _t0_v = ((IncrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 0;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub4(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 4)) {
      int _t1_v = ((DecrStmt*)(_r_f1->S))->VarId;
      delete _r_f1->S;
      _r_f1->S = new AssignStmt();
      ((AssignStmt*)(_r_f1->S))->kind = 1;
      ((AssignStmt*)(_r_f1->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f1->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f1->S))->Lhs->VarId = _t1_v;
      ((AssignStmt*)(_r_f1->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->VarId = _t1_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1110) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    _r_f1->S->__stub8(call_flags);
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    int _t3_enabled = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_var = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_val = 0;
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Rhs->kind == 1)) {
        _t3_enabled = 1;
        _t3_var = ((AssignStmt*)(_r_f3->S))->Lhs->VarId;
        _t3_val = ((AssignStmt*)(_r_f3->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub42(call_flags);
  }
  if (active_flags & 0b110000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    _r_f4->S->__stub50(call_flags);
  }
}

void _fuse__F1_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
}

void _fuse__F28_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub9(call_flags);
  }
}

void _fuse__F1_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
}

void _fuse__F1_F43(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
}

void _fuse__F45_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub9(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub9(call_flags);
  }
}

void _fuse__F49_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub9(call_flags);
  }
}

void _fuse__F34_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub9(call_flags);
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub10(call_flags);
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub10(call_flags);
  }
}

void _fuse__F22_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub8(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    int _t2_enabled = 0;
  }
  if (active_flags & 0b100) {
    int _t2_var = 0;
  }
  if (active_flags & 0b100) {
    int _t2_val = 0;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Rhs->kind == 1)) {
        _t2_enabled = 1;
        _t2_var = ((AssignStmt*)(_r_f2->S))->Lhs->VarId;
        _t2_val = ((AssignStmt*)(_r_f2->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub11(call_flags);
  }
}

void _fuse__F1_F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub12(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    int _t3_enabled = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_var = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_val = 0;
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Rhs->kind == 1)) {
        _t3_enabled = 1;
        _t3_var = ((AssignStmt*)(_r_f3->S))->Lhs->VarId;
        _t3_val = ((AssignStmt*)(_r_f3->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub14(call_flags);
  }
}

void _fuse__F28_F30_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub13(call_flags);
  }
}

void _fuse__F1_F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
}

void _fuse__F1_F43_F43(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f2 = (VarRefExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->kind == 2)) {
      if ((_r_f2->VarId == _t2_var)) {
        _r_f2->kind = 1;
        _r_f2->Value = _t2_val;
      }
    }
  }
}

void _fuse__F45_F46_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f2 = (BinaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub13(call_flags);
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub13(call_flags);
  }
}

void _fuse__F49_F50_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f2 = (UnaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub13(call_flags);
  }
}

void _fuse__F34_F36_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub13(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub11(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub11(call_flags);
  }
}

void _fuse__F40_F41_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub13(call_flags);
  }
}

void _fuse__F1_F3_F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub15(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    int _t4_enabled = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_var = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_val = 0;
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Rhs->kind == 1)) {
        _t4_enabled = 1;
        _t4_var = ((AssignStmt*)(_r_f4->S))->Lhs->VarId;
        _t4_val = ((AssignStmt*)(_r_f4->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
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
    _r_f0->Next->__stub17(call_flags);
  }
}

void _fuse__F28_F30_F30_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  AssignStmt* _r_f4 = (AssignStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub16(call_flags);
  }
}

void _fuse__F1_F3_F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
}

void _fuse__F1_F43_F43_F43(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f2 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f3 = (VarRefExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->kind == 2)) {
      if ((_r_f2->VarId == _t2_var)) {
        _r_f2->kind = 1;
        _r_f2->Value = _t2_val;
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->kind == 2)) {
      if ((_r_f3->VarId == _t3_var)) {
        _r_f3->kind = 1;
        _r_f3->Value = _t3_val;
      }
    }
  }
}

void _fuse__F45_F46_F46_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f2 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f3 = (BinaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub16(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub16(call_flags);
  }
}

void _fuse__F49_F50_F50_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f2 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f3 = (UnaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub16(call_flags);
  }
}

void _fuse__F34_F36_F36_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  IfStmt* _r_f4 = (IfStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub16(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Then->__stub14(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Else->__stub14(call_flags);
  }
}

void _fuse__F40_F41_F41_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f3 = (ReturnStmt*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub16(call_flags);
  }
}

void _fuse__F1_F3_F3_F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F24_F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub18(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    int _t5_enabled = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_var = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_val = 0;
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Rhs->kind == 1)) {
        _t5_enabled = 1;
        _t5_var = ((AssignStmt*)(_r_f5->S))->Lhs->VarId;
        _t5_val = ((AssignStmt*)(_r_f5->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
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
    _r_f0->Next->__stub20(call_flags);
  }
}

void _fuse__F28_F30_F30_F30_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  AssignStmt* _r_f4 = (AssignStmt*)(_r);
  AssignStmt* _r_f5 = (AssignStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Rhs->__stub19(call_flags);
  }
}

void _fuse__F1_F3_F3_F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
}

void _fuse__F1_F43_F43_F43_F43(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f2 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f3 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f4 = (VarRefExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->kind == 2)) {
      if ((_r_f2->VarId == _t2_var)) {
        _r_f2->kind = 1;
        _r_f2->Value = _t2_val;
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->kind == 2)) {
      if ((_r_f3->VarId == _t3_var)) {
        _r_f3->kind = 1;
        _r_f3->Value = _t3_val;
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->kind == 2)) {
      if ((_r_f4->VarId == _t4_var)) {
        _r_f4->kind = 1;
        _r_f4->Value = _t4_val;
      }
    }
  }
}

void _fuse__F45_F46_F46_F46_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f2 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f3 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f4 = (BinaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Lhs->__stub19(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Rhs->__stub19(call_flags);
  }
}

void _fuse__F49_F50_F50_F50_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f2 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f3 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f4 = (UnaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Operand->__stub19(call_flags);
  }
}

void _fuse__F34_F36_F36_F36_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  IfStmt* _r_f4 = (IfStmt*)(_r);
  IfStmt* _r_f5 = (IfStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Cond->__stub19(call_flags);
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Then->__stub17(call_flags);
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Else->__stub17(call_flags);
  }
}

void _fuse__F40_F41_F41_F41_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f3 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f4 = (ReturnStmt*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Val->__stub19(call_flags);
  }
}

void _fuse__F1_F3_F3_F3_F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F24_F24_F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub21(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Lhs->VarId == _t5_var)) {
        active_flags &= ~(0b100000); /* return */
      }
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub23(call_flags);
  }
  if (active_flags & 0b1000000) {
    int _t6_enabled = 0;
  }
  if (active_flags & 0b1000000) {
    int _t6_var = 0;
  }
  if (active_flags & 0b1000000) {
    int _t6_val = 0;
  }
  if (active_flags & 0b1000000) {
    if ((_r_f6->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f6->S))->Rhs->kind == 1)) {
        _t6_enabled = 1;
        _t6_var = ((AssignStmt*)(_r_f6->S))->Lhs->VarId;
        _t6_val = ((AssignStmt*)(_r_f6->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    _r_f6->Next->__stub25(call_flags);
  }
}

void _fuse__F28_F30_F30_F30_F30_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  AssignStmt* _r_f4 = (AssignStmt*)(_r);
  AssignStmt* _r_f5 = (AssignStmt*)(_r);
  AssignStmt* _r_f6 = (AssignStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Rhs->__stub22(call_flags);
  }
}

void _fuse__F1_F3_F3_F3_F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
}

void _fuse__F1_F43_F43_F43_F43_F43(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f2 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f3 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f4 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f5 = (VarRefExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->kind == 2)) {
      if ((_r_f2->VarId == _t2_var)) {
        _r_f2->kind = 1;
        _r_f2->Value = _t2_val;
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->kind == 2)) {
      if ((_r_f3->VarId == _t3_var)) {
        _r_f3->kind = 1;
        _r_f3->Value = _t3_val;
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->kind == 2)) {
      if ((_r_f4->VarId == _t4_var)) {
        _r_f4->kind = 1;
        _r_f4->Value = _t4_val;
      }
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->kind == 2)) {
      if ((_r_f5->VarId == _t5_var)) {
        _r_f5->kind = 1;
        _r_f5->Value = _t5_val;
      }
    }
  }
}

void _fuse__F45_F46_F46_F46_F46_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f2 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f3 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f4 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f5 = (BinaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Lhs->__stub22(call_flags);
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Rhs->__stub22(call_flags);
  }
}

void _fuse__F49_F50_F50_F50_F50_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f2 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f3 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f4 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f5 = (UnaryExpr*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Operand->__stub22(call_flags);
  }
}

void _fuse__F34_F36_F36_F36_F36_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  IfStmt* _r_f4 = (IfStmt*)(_r);
  IfStmt* _r_f5 = (IfStmt*)(_r);
  IfStmt* _r_f6 = (IfStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Cond->__stub22(call_flags);
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Then->__stub20(call_flags);
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Else->__stub20(call_flags);
  }
}

void _fuse__F40_F41_F41_F41_F41_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f3 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f4 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f5 = (ReturnStmt*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Val->__stub22(call_flags);
  }
}

void _fuse__F22_F24_F24_F24_F24_F24(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub24(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Lhs->VarId == _t5_var)) {
        active_flags &= ~(0b100000); /* return */
      }
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub23(call_flags);
  }
}

void _fuse__F28_F30_F30_F30_F30_F30(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  AssignStmt* _r_f4 = (AssignStmt*)(_r);
  AssignStmt* _r_f5 = (AssignStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Rhs->__stub22(call_flags);
  }
}

void _fuse__F34_F36_F36_F36_F36_F36(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  IfStmt* _r_f4 = (IfStmt*)(_r);
  IfStmt* _r_f5 = (IfStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Cond->__stub22(call_flags);
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Then->__stub23(call_flags);
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Else->__stub23(call_flags);
  }
}

void _fuse__F40_F41_F41_F41_F41_F41(ReturnStmt* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f3 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f4 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f5 = (ReturnStmt*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Val->__stub22(call_flags);
  }
}

void _fuse__F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
}

void _fuse__F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub26(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    int _t1_enabled = 0;
  }
  if (active_flags & 0b10) {
    int _t1_var = 0;
  }
  if (active_flags & 0b10) {
    int _t1_val = 0;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Rhs->kind == 1)) {
        _t1_enabled = 1;
        _t1_var = ((AssignStmt*)(_r_f1->S))->Lhs->VarId;
        _t1_val = ((AssignStmt*)(_r_f1->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub28(call_flags);
  }
}

void _fuse__F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub27(call_flags);
  }
}

void _fuse__F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
}

void _fuse__F43(VarRefExpr* _r, unsigned int active_flags) {
  VarRefExpr* _r_f0 = (VarRefExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) {
    if ((_r_f0->kind == 2)) {
      if ((_r_f0->VarId == _t0_var)) {
        _r_f0->kind = 1;
        _r_f0->Value = _t0_val;
      }
    }
  }
}

void _fuse__F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub27(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub27(call_flags);
  }
}

void _fuse__F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub27(call_flags);
  }
}

void _fuse__F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub27(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub25(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub25(call_flags);
  }
}

void _fuse__F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub27(call_flags);
  }
}

void _fuse__F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
}

void _fuse__F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub29(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    int _t2_enabled = 0;
  }
  if (active_flags & 0b100) {
    int _t2_var = 0;
  }
  if (active_flags & 0b100) {
    int _t2_val = 0;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Rhs->kind == 1)) {
        _t2_enabled = 1;
        _t2_var = ((AssignStmt*)(_r_f2->S))->Lhs->VarId;
        _t2_val = ((AssignStmt*)(_r_f2->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub31(call_flags);
  }
}

void _fuse__F30_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub30(call_flags);
  }
}

void _fuse__F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
}

void _fuse__F43_F43(VarRefExpr* _r, unsigned int active_flags) {
  VarRefExpr* _r_f0 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) {
    if ((_r_f0->kind == 2)) {
      if ((_r_f0->VarId == _t0_var)) {
        _r_f0->kind = 1;
        _r_f0->Value = _t0_val;
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
}

void _fuse__F46_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub30(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub30(call_flags);
  }
}

void _fuse__F50_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub30(call_flags);
  }
}

void _fuse__F36_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub30(call_flags);
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub28(call_flags);
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub28(call_flags);
  }
}

void _fuse__F41_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub30(call_flags);
  }
}

void _fuse__F3_F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
}

void _fuse__F24_F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub32(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    int _t3_enabled = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_var = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_val = 0;
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Rhs->kind == 1)) {
        _t3_enabled = 1;
        _t3_var = ((AssignStmt*)(_r_f3->S))->Lhs->VarId;
        _t3_val = ((AssignStmt*)(_r_f3->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub34(call_flags);
  }
}

void _fuse__F30_F30_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub33(call_flags);
  }
}

void _fuse__F3_F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
}

void _fuse__F43_F43_F43(VarRefExpr* _r, unsigned int active_flags) {
  VarRefExpr* _r_f0 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f2 = (VarRefExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) {
    if ((_r_f0->kind == 2)) {
      if ((_r_f0->VarId == _t0_var)) {
        _r_f0->kind = 1;
        _r_f0->Value = _t0_val;
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->kind == 2)) {
      if ((_r_f2->VarId == _t2_var)) {
        _r_f2->kind = 1;
        _r_f2->Value = _t2_val;
      }
    }
  }
}

void _fuse__F46_F46_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f2 = (BinaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub33(call_flags);
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub33(call_flags);
  }
}

void _fuse__F50_F50_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f2 = (UnaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub33(call_flags);
  }
}

void _fuse__F36_F36_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub33(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub31(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub31(call_flags);
  }
}

void _fuse__F41_F41_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub33(call_flags);
  }
}

void _fuse__F3_F3_F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
}

void _fuse__F24_F24_F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub35(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    int _t4_enabled = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_var = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_val = 0;
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Rhs->kind == 1)) {
        _t4_enabled = 1;
        _t4_var = ((AssignStmt*)(_r_f4->S))->Lhs->VarId;
        _t4_val = ((AssignStmt*)(_r_f4->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
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
    _r_f0->Next->__stub37(call_flags);
  }
}

void _fuse__F30_F30_F30_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  AssignStmt* _r_f4 = (AssignStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub36(call_flags);
  }
}

void _fuse__F3_F3_F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
}

void _fuse__F43_F43_F43_F43(VarRefExpr* _r, unsigned int active_flags) {
  VarRefExpr* _r_f0 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f2 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f3 = (VarRefExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) {
    if ((_r_f0->kind == 2)) {
      if ((_r_f0->VarId == _t0_var)) {
        _r_f0->kind = 1;
        _r_f0->Value = _t0_val;
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->kind == 2)) {
      if ((_r_f2->VarId == _t2_var)) {
        _r_f2->kind = 1;
        _r_f2->Value = _t2_val;
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->kind == 2)) {
      if ((_r_f3->VarId == _t3_var)) {
        _r_f3->kind = 1;
        _r_f3->Value = _t3_val;
      }
    }
  }
}

void _fuse__F46_F46_F46_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f2 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f3 = (BinaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub36(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub36(call_flags);
  }
}

void _fuse__F50_F50_F50_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f2 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f3 = (UnaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub36(call_flags);
  }
}

void _fuse__F36_F36_F36_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  IfStmt* _r_f4 = (IfStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub36(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Then->__stub34(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Else->__stub34(call_flags);
  }
}

void _fuse__F41_F41_F41_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f3 = (ReturnStmt*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub36(call_flags);
  }
}

void _fuse__F3_F3_F3_F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
}

void _fuse__F24_F24_F24_F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub38(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub40(call_flags);
  }
  if (active_flags & 0b100000) {
    int _t5_enabled = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_var = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_val = 0;
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Rhs->kind == 1)) {
        _t5_enabled = 1;
        _t5_var = ((AssignStmt*)(_r_f5->S))->Lhs->VarId;
        _t5_val = ((AssignStmt*)(_r_f5->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b100000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    _r_f5->Next->__stub25(call_flags);
  }
}

void _fuse__F30_F30_F30_F30_F30_F29(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  AssignStmt* _r_f4 = (AssignStmt*)(_r);
  AssignStmt* _r_f5 = (AssignStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Rhs->__stub39(call_flags);
  }
}

void _fuse__F3_F3_F3_F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
}

void _fuse__F43_F43_F43_F43_F43(VarRefExpr* _r, unsigned int active_flags) {
  VarRefExpr* _r_f0 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f1 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f2 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f3 = (VarRefExpr*)(_r);
  VarRefExpr* _r_f4 = (VarRefExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b1) {
    if ((_r_f0->kind == 2)) {
      if ((_r_f0->VarId == _t0_var)) {
        _r_f0->kind = 1;
        _r_f0->Value = _t0_val;
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->kind == 2)) {
      if ((_r_f1->VarId == _t1_var)) {
        _r_f1->kind = 1;
        _r_f1->Value = _t1_val;
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->kind == 2)) {
      if ((_r_f2->VarId == _t2_var)) {
        _r_f2->kind = 1;
        _r_f2->Value = _t2_val;
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->kind == 2)) {
      if ((_r_f3->VarId == _t3_var)) {
        _r_f3->kind = 1;
        _r_f3->Value = _t3_val;
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->kind == 2)) {
      if ((_r_f4->VarId == _t4_var)) {
        _r_f4->kind = 1;
        _r_f4->Value = _t4_val;
      }
    }
  }
}

void _fuse__F46_F46_F46_F46_F46(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f2 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f3 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f4 = (BinaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Lhs->__stub39(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Rhs->__stub39(call_flags);
  }
}

void _fuse__F50_F50_F50_F50_F50(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f2 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f3 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f4 = (UnaryExpr*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Operand->__stub39(call_flags);
  }
}

void _fuse__F36_F36_F36_F36_F36_F35(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  IfStmt* _r_f4 = (IfStmt*)(_r);
  IfStmt* _r_f5 = (IfStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Cond->__stub39(call_flags);
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Then->__stub37(call_flags);
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Else->__stub37(call_flags);
  }
}

void _fuse__F41_F41_F41_F41_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f3 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f4 = (ReturnStmt*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Val->__stub39(call_flags);
  }
}

void _fuse__F24_F24_F24_F24_F24(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub41(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub40(call_flags);
  }
}

void _fuse__F30_F30_F30_F30_F30(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  AssignStmt* _r_f4 = (AssignStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Rhs->__stub39(call_flags);
  }
}

void _fuse__F36_F36_F36_F36_F36(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  IfStmt* _r_f4 = (IfStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Cond->__stub39(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Then->__stub40(call_flags);
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Else->__stub40(call_flags);
  }
}

void _fuse__F41_F41_F41_F41_F41(ReturnStmt* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f3 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f4 = (ReturnStmt*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Val->__stub39(call_flags);
  }
}

void _fuse__F40_F41_F2(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ReturnStmt* _r_f1 = (ReturnStmt*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub9(call_flags);
  }
}

void _fuse__F0_F1_F3_F3_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
}

void _fuse__F21_F22_F24_F24_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 3)) {
      int _t0_v = ((IncrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 0;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub4(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 4)) {
      int _t1_v = ((DecrStmt*)(_r_f1->S))->VarId;
      delete _r_f1->S;
      _r_f1->S = new AssignStmt();
      ((AssignStmt*)(_r_f1->S))->kind = 1;
      ((AssignStmt*)(_r_f1->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f1->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f1->S))->Lhs->VarId = _t1_v;
      ((AssignStmt*)(_r_f1->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->VarId = _t1_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b11110) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    _r_f1->S->__stub12(call_flags);
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    int _t4_enabled = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_var = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_val = 0;
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Rhs->kind == 1)) {
        _t4_enabled = 1;
        _t4_var = ((AssignStmt*)(_r_f4->S))->Lhs->VarId;
        _t4_val = ((AssignStmt*)(_r_f4->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
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
    _r_f0->Next->__stub43(call_flags);
  }
  if (active_flags & 0b1100000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    _r_f5->S->__stub50(call_flags);
  }
}

void _fuse__F0_F1_F3_F3_F3_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
  ASTNode* _r_f7 = (ASTNode*)(_r);
}

void _fuse__F21_F22_F24_F24_F24_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  StmtListInner* _r_f7 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 3)) {
      int _t0_v = ((IncrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 0;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub4(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 4)) {
      int _t1_v = ((DecrStmt*)(_r_f1->S))->VarId;
      delete _r_f1->S;
      _r_f1->S = new AssignStmt();
      ((AssignStmt*)(_r_f1->S))->kind = 1;
      ((AssignStmt*)(_r_f1->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f1->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f1->S))->Lhs->VarId = _t1_v;
      ((AssignStmt*)(_r_f1->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->VarId = _t1_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b111110) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f1->S->__stub15(call_flags);
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    int _t5_enabled = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_var = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_val = 0;
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Rhs->kind == 1)) {
        _t5_enabled = 1;
        _t5_var = ((AssignStmt*)(_r_f5->S))->Lhs->VarId;
        _t5_val = ((AssignStmt*)(_r_f5->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
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
    _r_f0->Next->__stub44(call_flags);
  }
  if (active_flags & 0b11000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    _r_f6->S->__stub50(call_flags);
  }
  if (active_flags & 0b10000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    _r_f7->Next->__stub52(call_flags);
  }
}

void _fuse__F0_F1_F3_F3_F3_F3_F2_F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
  ASTNode* _r_f7 = (ASTNode*)(_r);
}

void _fuse__F21_F22_F24_F24_F24_F24_F23_F25(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  StmtListInner* _r_f7 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 3)) {
      int _t0_v = ((IncrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 0;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub4(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 4)) {
      int _t1_v = ((DecrStmt*)(_r_f1->S))->VarId;
      delete _r_f1->S;
      _r_f1->S = new AssignStmt();
      ((AssignStmt*)(_r_f1->S))->kind = 1;
      ((AssignStmt*)(_r_f1->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f1->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f1->S))->Lhs->VarId = _t1_v;
      ((AssignStmt*)(_r_f1->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->VarId = _t1_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b1111110) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f1->S->__stub18(call_flags);
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Lhs->VarId == _t5_var)) {
        active_flags &= ~(0b100000); /* return */
      }
    }
  }
  if (active_flags & 0b1000000) {
    int _t6_enabled = 0;
  }
  if (active_flags & 0b1000000) {
    int _t6_var = 0;
  }
  if (active_flags & 0b1000000) {
    int _t6_val = 0;
  }
  if (active_flags & 0b1000000) {
    if ((_r_f6->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f6->S))->Rhs->kind == 1)) {
        _t6_enabled = 1;
        _t6_var = ((AssignStmt*)(_r_f6->S))->Lhs->VarId;
        _t6_val = ((AssignStmt*)(_r_f6->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
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
    _r_f0->Next->__stub45(call_flags);
  }
  if (active_flags & 0b10000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    _r_f7->S->__stub47(call_flags);
  }
  if (active_flags & 0b10000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    _r_f7->Next->__stub49(call_flags);
  }
}

void _fuse__F0_F1_F3_F3_F3_F3_F3_F2(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
  ASTNode* _r_f7 = (ASTNode*)(_r);
}

void _fuse__F21_F22_F24_F24_F24_F24_F24_F23(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  StmtListInner* _r_f7 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 3)) {
      int _t0_v = ((IncrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 0;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub4(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 4)) {
      int _t1_v = ((DecrStmt*)(_r_f1->S))->VarId;
      delete _r_f1->S;
      _r_f1->S = new AssignStmt();
      ((AssignStmt*)(_r_f1->S))->kind = 1;
      ((AssignStmt*)(_r_f1->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f1->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f1->S))->Lhs->VarId = _t1_v;
      ((AssignStmt*)(_r_f1->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->VarId = _t1_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b1000000) {
    if ((_t6_enabled == 0)) {
      active_flags &= ~(0b1000000); /* return */
    }
  }
  if (active_flags & 0b11111110) /* call */ {
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
    _r_f1->S->__stub21(call_flags);
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Lhs->VarId == _t5_var)) {
        active_flags &= ~(0b100000); /* return */
      }
    }
  }
  if (active_flags & 0b1000000) {
    if ((_r_f6->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f6->S))->Lhs->VarId == _t6_var)) {
        active_flags &= ~(0b1000000); /* return */
      }
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub46(call_flags);
  }
  if (active_flags & 0b10000000) {
    int _t7_enabled = 0;
  }
  if (active_flags & 0b10000000) {
    int _t7_var = 0;
  }
  if (active_flags & 0b10000000) {
    int _t7_val = 0;
  }
  if (active_flags & 0b10000000) {
    if ((_r_f7->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f7->S))->Rhs->kind == 1)) {
        _t7_enabled = 1;
        _t7_var = ((AssignStmt*)(_r_f7->S))->Lhs->VarId;
        _t7_val = ((AssignStmt*)(_r_f7->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b10000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    _r_f7->Next->__stub25(call_flags);
  }
}

void _fuse__F0_F1_F3_F3_F3_F3_F3(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
}

void _fuse__F21_F22_F24_F24_F24_F24_F24(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 3)) {
      int _t0_v = ((IncrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 0;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub4(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 4)) {
      int _t1_v = ((DecrStmt*)(_r_f1->S))->VarId;
      delete _r_f1->S;
      _r_f1->S = new AssignStmt();
      ((AssignStmt*)(_r_f1->S))->kind = 1;
      ((AssignStmt*)(_r_f1->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f1->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f1->S))->Lhs->VarId = _t1_v;
      ((AssignStmt*)(_r_f1->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Lhs))->VarId = _t1_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f1->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b1000000) {
    if ((_t6_enabled == 0)) {
      active_flags &= ~(0b1000000); /* return */
    }
  }
  if (active_flags & 0b1111110) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f1->S->__stub24(call_flags);
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Lhs->VarId == _t5_var)) {
        active_flags &= ~(0b100000); /* return */
      }
    }
  }
  if (active_flags & 0b1000000) {
    if ((_r_f6->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f6->S))->Lhs->VarId == _t6_var)) {
        active_flags &= ~(0b1000000); /* return */
      }
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub46(call_flags);
  }
}

void _fuse__F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
}

void _fuse__F31(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub48(call_flags);
  }
}

void _fuse__F47(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub48(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub48(call_flags);
  }
  if (active_flags & 0b1) {
    if (((_r_f0->Lhs->kind == 1) && (_r_f0->Rhs->kind == 1))) {
      _r_f0->kind = 1;
      if ((_r_f0->Op == 0)) {
        _r_f0->Value = (_r_f0->Lhs->Value + _r_f0->Rhs->Value);
      }
      if ((_r_f0->Op == 1)) {
        _r_f0->Value = (_r_f0->Lhs->Value - _r_f0->Rhs->Value);
      }
      if ((_r_f0->Op == 2)) {
        _r_f0->Value = (_r_f0->Lhs->Value * _r_f0->Rhs->Value);
      }
    }
  }
}

void _fuse__F51(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub48(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->Operand->kind == 1)) {
      _r_f0->kind = 1;
      _r_f0->Value = (0 - _r_f0->Operand->Value);
    }
  }
}

void _fuse__F37(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub48(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub49(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub49(call_flags);
  }
}

void _fuse__F25(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub47(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub49(call_flags);
  }
}

void _fuse__F42(ReturnStmt* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub48(call_flags);
  }
}

void _fuse__F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
}

void _fuse__F31_F32(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub48(call_flags);
  }
}

void _fuse__F37_F38(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub48(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub51(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub51(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->Cond->kind == 1)) {
      int _t1_taken = ((ConstantExpr*)(_r_f1->Cond))->Value;
      if ((_t1_taken != 0)) {
        delete _r_f1->Else;
        _r_f1->Else = new StmtListEnd();
      } else {
        delete _r_f1->Then;
        _r_f1->Then = new StmtListEnd();
      }
    }
  }
}

void _fuse__F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub50(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub51(call_flags);
  }
}

void _fuse__F42_F5(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub48(call_flags);
  }
}

void _fuse__F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
}

void _fuse__F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub53(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub52(call_flags);
  }
}

void _fuse__F32(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
}

void _fuse__F38(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub52(call_flags);
  }
  if (active_flags & 0b1) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub52(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->Cond->kind == 1)) {
      int _t0_taken = ((ConstantExpr*)(_r_f0->Cond))->Value;
      if ((_t0_taken != 0)) {
        delete _r_f0->Else;
        _r_f0->Else = new StmtListEnd();
      } else {
        delete _r_f0->Then;
        _r_f0->Then = new StmtListEnd();
      }
    }
  }
}

void _fuse__F1_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
}

void _fuse__F28_F29_F31_F32(AssignStmt* _r, unsigned int active_flags) {
  AssignStmt* _r_f0 = (AssignStmt*)(_r);
  AssignStmt* _r_f1 = (AssignStmt*)(_r);
  AssignStmt* _r_f2 = (AssignStmt*)(_r);
  AssignStmt* _r_f3 = (AssignStmt*)(_r);
  if (active_flags & 0b101) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub55(call_flags);
  }
}

void _fuse__F1_F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
}

void _fuse__F45_F47(BinaryExpr* _r, unsigned int active_flags) {
  BinaryExpr* _r_f0 = (BinaryExpr*)(_r);
  BinaryExpr* _r_f1 = (BinaryExpr*)(_r);
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Lhs->__stub55(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Rhs->__stub55(call_flags);
  }
  if (active_flags & 0b10) {
    if (((_r_f1->Lhs->kind == 1) && (_r_f1->Rhs->kind == 1))) {
      _r_f1->kind = 1;
      if ((_r_f1->Op == 0)) {
        _r_f1->Value = (_r_f1->Lhs->Value + _r_f1->Rhs->Value);
      }
      if ((_r_f1->Op == 1)) {
        _r_f1->Value = (_r_f1->Lhs->Value - _r_f1->Rhs->Value);
      }
      if ((_r_f1->Op == 2)) {
        _r_f1->Value = (_r_f1->Lhs->Value * _r_f1->Rhs->Value);
      }
    }
  }
}

void _fuse__F49_F51(UnaryExpr* _r, unsigned int active_flags) {
  UnaryExpr* _r_f0 = (UnaryExpr*)(_r);
  UnaryExpr* _r_f1 = (UnaryExpr*)(_r);
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Operand->__stub55(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->Operand->kind == 1)) {
      _r_f1->kind = 1;
      _r_f1->Value = (0 - _r_f1->Operand->Value);
    }
  }
}

void _fuse__F34_F35_F37_F38(IfStmt* _r, unsigned int active_flags) {
  IfStmt* _r_f0 = (IfStmt*)(_r);
  IfStmt* _r_f1 = (IfStmt*)(_r);
  IfStmt* _r_f2 = (IfStmt*)(_r);
  IfStmt* _r_f3 = (IfStmt*)(_r);
  if (active_flags & 0b101) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Cond->__stub55(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Then->__stub56(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Else->__stub56(call_flags);
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->Cond->kind == 1)) {
      int _t3_taken = ((ConstantExpr*)(_r_f3->Cond))->Value;
      if ((_t3_taken != 0)) {
        delete _r_f3->Else;
        _r_f3->Else = new StmtListEnd();
      } else {
        delete _r_f3->Then;
        _r_f3->Then = new StmtListEnd();
      }
    }
  }
}

void _fuse__F22_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    int _t1_enabled = 0;
  }
  if (active_flags & 0b10) {
    int _t1_var = 0;
  }
  if (active_flags & 0b10) {
    int _t1_val = 0;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Rhs->kind == 1)) {
        _t1_enabled = 1;
        _t1_var = ((AssignStmt*)(_r_f1->S))->Lhs->VarId;
        _t1_val = ((AssignStmt*)(_r_f1->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub54(call_flags);
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub57(call_flags);
  }
}

void _fuse__F1_F3_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub8(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    int _t2_enabled = 0;
  }
  if (active_flags & 0b100) {
    int _t2_var = 0;
  }
  if (active_flags & 0b100) {
    int _t2_val = 0;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Rhs->kind == 1)) {
        _t2_enabled = 1;
        _t2_var = ((AssignStmt*)(_r_f2->S))->Lhs->VarId;
        _t2_val = ((AssignStmt*)(_r_f2->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub58(call_flags);
  }
  if (active_flags & 0b11000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    _r_f3->S->__stub50(call_flags);
  }
}

void _fuse__F1_F3_F3_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F24_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub12(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    int _t3_enabled = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_var = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_val = 0;
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Rhs->kind == 1)) {
        _t3_enabled = 1;
        _t3_var = ((AssignStmt*)(_r_f3->S))->Lhs->VarId;
        _t3_val = ((AssignStmt*)(_r_f3->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub59(call_flags);
  }
  if (active_flags & 0b110000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    _r_f4->S->__stub50(call_flags);
  }
}

void _fuse__F1_F3_F3_F3_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F24_F24_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub15(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    int _t4_enabled = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_var = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_val = 0;
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Rhs->kind == 1)) {
        _t4_enabled = 1;
        _t4_var = ((AssignStmt*)(_r_f4->S))->Lhs->VarId;
        _t4_val = ((AssignStmt*)(_r_f4->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
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
    _r_f0->Next->__stub60(call_flags);
  }
  if (active_flags & 0b1100000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    _r_f5->S->__stub50(call_flags);
  }
}

void _fuse__F1_F3_F3_F3_F3_F2_F4_F5(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
  ASTNode* _r_f7 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F24_F24_F24_F23_F25_F26(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  StmtListInner* _r_f7 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub18(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    int _t5_enabled = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_var = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_val = 0;
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Rhs->kind == 1)) {
        _t5_enabled = 1;
        _t5_var = ((AssignStmt*)(_r_f5->S))->Lhs->VarId;
        _t5_val = ((AssignStmt*)(_r_f5->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
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
    _r_f0->Next->__stub61(call_flags);
  }
  if (active_flags & 0b11000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    _r_f6->S->__stub50(call_flags);
  }
  if (active_flags & 0b10000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    _r_f7->Next->__stub52(call_flags);
  }
}

void _fuse__F1_F3_F3_F3_F3_F3_F2_F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
  ASTNode* _r_f7 = (ASTNode*)(_r);
}

void _fuse__F22_F24_F24_F24_F24_F24_F23_F25(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  StmtListInner* _r_f7 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 4)) {
      int _t0_v = ((DecrStmt*)(_r_f0->S))->VarId;
      delete _r_f0->S;
      _r_f0->S = new AssignStmt();
      ((AssignStmt*)(_r_f0->S))->kind = 1;
      ((AssignStmt*)(_r_f0->S))->Lhs = new VarRefExpr();
      ((AssignStmt*)(_r_f0->S))->Lhs->kind = 2;
      ((AssignStmt*)(_r_f0->S))->Lhs->VarId = _t0_v;
      ((AssignStmt*)(_r_f0->S))->Rhs = new BinaryExpr();
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->kind = 3;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Op = 1;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs = new VarRefExpr();
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->kind = 2;
      ((VarRefExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Lhs))->VarId = _t0_v;
      ((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs = new ConstantExpr();
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->kind = 1;
      ((ConstantExpr*)(((BinaryExpr*)(((AssignStmt*)(_r_f0->S))->Rhs))->Rhs))->Value = 1;
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b100000) {
    if ((_t5_enabled == 0)) {
      active_flags &= ~(0b100000); /* return */
    }
  }
  if (active_flags & 0b1111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub21(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Lhs->VarId == _t5_var)) {
        active_flags &= ~(0b100000); /* return */
      }
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub23(call_flags);
  }
  if (active_flags & 0b1000000) {
    int _t6_enabled = 0;
  }
  if (active_flags & 0b1000000) {
    int _t6_var = 0;
  }
  if (active_flags & 0b1000000) {
    int _t6_val = 0;
  }
  if (active_flags & 0b1000000) {
    if ((_r_f6->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f6->S))->Rhs->kind == 1)) {
        _t6_enabled = 1;
        _t6_var = ((AssignStmt*)(_r_f6->S))->Lhs->VarId;
        _t6_val = ((AssignStmt*)(_r_f6->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b11000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    _r_f6->Next->__stub62(call_flags);
  }
  if (active_flags & 0b10000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 7));
    _r_f7->S->__stub47(call_flags);
  }
}

void _fuse__F3_F2_F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
}

void _fuse__F24_F23_F25(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub26(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    int _t1_enabled = 0;
  }
  if (active_flags & 0b10) {
    int _t1_var = 0;
  }
  if (active_flags & 0b10) {
    int _t1_val = 0;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Rhs->kind == 1)) {
        _t1_enabled = 1;
        _t1_var = ((AssignStmt*)(_r_f1->S))->Lhs->VarId;
        _t1_val = ((AssignStmt*)(_r_f1->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub63(call_flags);
  }
  if (active_flags & 0b100) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    _r_f2->S->__stub47(call_flags);
  }
}

void _fuse__F3_F3_F2_F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
}

void _fuse__F24_F24_F23_F25(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub29(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    int _t2_enabled = 0;
  }
  if (active_flags & 0b100) {
    int _t2_var = 0;
  }
  if (active_flags & 0b100) {
    int _t2_val = 0;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Rhs->kind == 1)) {
        _t2_enabled = 1;
        _t2_var = ((AssignStmt*)(_r_f2->S))->Lhs->VarId;
        _t2_val = ((AssignStmt*)(_r_f2->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub64(call_flags);
  }
  if (active_flags & 0b1000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    _r_f3->S->__stub47(call_flags);
  }
}

void _fuse__F3_F3_F3_F2_F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
}

void _fuse__F24_F24_F24_F23_F25(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->S->__stub32(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    int _t3_enabled = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_var = 0;
  }
  if (active_flags & 0b1000) {
    int _t3_val = 0;
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Rhs->kind == 1)) {
        _t3_enabled = 1;
        _t3_var = ((AssignStmt*)(_r_f3->S))->Lhs->VarId;
        _t3_val = ((AssignStmt*)(_r_f3->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub65(call_flags);
  }
  if (active_flags & 0b10000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    _r_f4->S->__stub47(call_flags);
  }
}

void _fuse__F3_F3_F3_F3_F2_F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
}

void _fuse__F24_F24_F24_F24_F23_F25(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub35(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    int _t4_enabled = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_var = 0;
  }
  if (active_flags & 0b10000) {
    int _t4_val = 0;
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Rhs->kind == 1)) {
        _t4_enabled = 1;
        _t4_var = ((AssignStmt*)(_r_f4->S))->Lhs->VarId;
        _t4_val = ((AssignStmt*)(_r_f4->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
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
    _r_f0->Next->__stub66(call_flags);
  }
  if (active_flags & 0b100000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    _r_f5->S->__stub47(call_flags);
  }
}

void _fuse__F3_F3_F3_F3_F3_F2_F4(ASTNode* _r, unsigned int active_flags) {
  ASTNode* _r_f0 = (ASTNode*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ASTNode* _r_f2 = (ASTNode*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  ASTNode* _r_f4 = (ASTNode*)(_r);
  ASTNode* _r_f5 = (ASTNode*)(_r);
  ASTNode* _r_f6 = (ASTNode*)(_r);
}

void _fuse__F24_F24_F24_F24_F24_F23_F25(StmtListInner* _r, unsigned int active_flags) {
  StmtListInner* _r_f0 = (StmtListInner*)(_r);
  StmtListInner* _r_f1 = (StmtListInner*)(_r);
  StmtListInner* _r_f2 = (StmtListInner*)(_r);
  StmtListInner* _r_f3 = (StmtListInner*)(_r);
  StmtListInner* _r_f4 = (StmtListInner*)(_r);
  StmtListInner* _r_f5 = (StmtListInner*)(_r);
  StmtListInner* _r_f6 = (StmtListInner*)(_r);
  if (active_flags & 0b1) {
    if ((_t0_enabled == 0)) {
      active_flags &= ~(0b1); /* return */
    }
  }
  if (active_flags & 0b10) {
    if ((_t1_enabled == 0)) {
      active_flags &= ~(0b10); /* return */
    }
  }
  if (active_flags & 0b100) {
    if ((_t2_enabled == 0)) {
      active_flags &= ~(0b100); /* return */
    }
  }
  if (active_flags & 0b1000) {
    if ((_t3_enabled == 0)) {
      active_flags &= ~(0b1000); /* return */
    }
  }
  if (active_flags & 0b10000) {
    if ((_t4_enabled == 0)) {
      active_flags &= ~(0b10000); /* return */
    }
  }
  if (active_flags & 0b111111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->S->__stub38(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f0->S))->Lhs->VarId == _t0_var)) {
        active_flags &= ~(0b1); /* return */
      }
    }
  }
  if (active_flags & 0b10) {
    if ((_r_f1->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f1->S))->Lhs->VarId == _t1_var)) {
        active_flags &= ~(0b10); /* return */
      }
    }
  }
  if (active_flags & 0b100) {
    if ((_r_f2->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f2->S))->Lhs->VarId == _t2_var)) {
        active_flags &= ~(0b100); /* return */
      }
    }
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f3->S))->Lhs->VarId == _t3_var)) {
        active_flags &= ~(0b1000); /* return */
      }
    }
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f4->S))->Lhs->VarId == _t4_var)) {
        active_flags &= ~(0b10000); /* return */
      }
    }
  }
  if (active_flags & 0b11111) /* call */ {
    unsigned int call_flags = 0;
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
    _r_f0->Next->__stub40(call_flags);
  }
  if (active_flags & 0b100000) {
    int _t5_enabled = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_var = 0;
  }
  if (active_flags & 0b100000) {
    int _t5_val = 0;
  }
  if (active_flags & 0b100000) {
    if ((_r_f5->S->kind == 1)) {
      if ((((AssignStmt*)(_r_f5->S))->Rhs->kind == 1)) {
        _t5_enabled = 1;
        _t5_var = ((AssignStmt*)(_r_f5->S))->Lhs->VarId;
        _t5_val = ((AssignStmt*)(_r_f5->S))->Rhs->Value;
      }
    }
  }
  if (active_flags & 0b1100000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 5));
    _r_f5->Next->__stub62(call_flags);
  }
  if (active_flags & 0b1000000) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 6));
    _r_f6->S->__stub47(call_flags);
  }
}

void _fuse__F40_F2_F42_F5(ASTNode* _r, unsigned int active_flags) {
  ReturnStmt* _r_f0 = (ReturnStmt*)(_r);
  ASTNode* _r_f1 = (ASTNode*)(_r);
  ReturnStmt* _r_f2 = (ReturnStmt*)(_r);
  ASTNode* _r_f3 = (ASTNode*)(_r);
  if (active_flags & 0b101) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Val->__stub55(call_flags);
  }
}

void ProgramRoot::__stub0(unsigned int active_flags) { _fuse__F6_F7_F8_F9_F10((ProgramRoot*) this, active_flags); }

void FunctionList::__stub1(unsigned int active_flags) { _fuse__F0_F1_F2_F4_F5((ASTNode*) this, active_flags); }
void FunctionListInner::__stub1(unsigned int active_flags) { _fuse__F11_F12_F13_F14_F15((FunctionListInner*) this, active_flags); }
void FunctionListEnd::__stub1(unsigned int active_flags) { _fuse__F0_F1_F2_F4_F5((ASTNode*) this, active_flags); }

void Function::__stub2(unsigned int active_flags) { _fuse__F16_F17_F18_F19_F20((Function*) this, active_flags); }

void StmtList::__stub3(unsigned int active_flags) { _fuse__F0_F1_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub3(unsigned int active_flags) { _fuse__F21_F22_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub3(unsigned int active_flags) { _fuse__F0_F1_F2_F4_F5((ASTNode*) this, active_flags); }

void Stmt::__stub4(unsigned int active_flags) { _fuse__F0((ASTNode*) this, active_flags); }
void AssignStmt::__stub4(unsigned int active_flags) { _fuse__F27((AssignStmt*) this, active_flags); }
void IfStmt::__stub4(unsigned int active_flags) { _fuse__F33((IfStmt*) this, active_flags); }
void IncrStmt::__stub4(unsigned int active_flags) { _fuse__F0((ASTNode*) this, active_flags); }
void DecrStmt::__stub4(unsigned int active_flags) { _fuse__F0((ASTNode*) this, active_flags); }
void ReturnStmt::__stub4(unsigned int active_flags) { _fuse__F39((ReturnStmt*) this, active_flags); }

void Expr::__stub5(unsigned int active_flags) { _fuse__F0((ASTNode*) this, active_flags); }
void ConstantExpr::__stub5(unsigned int active_flags) { _fuse__F0((ASTNode*) this, active_flags); }
void VarRefExpr::__stub5(unsigned int active_flags) { _fuse__F0((ASTNode*) this, active_flags); }
void BinaryExpr::__stub5(unsigned int active_flags) { _fuse__F44((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub5(unsigned int active_flags) { _fuse__F48((UnaryExpr*) this, active_flags); }

void StmtList::__stub6(unsigned int active_flags) { _fuse__F0((ASTNode*) this, active_flags); }
void StmtListInner::__stub6(unsigned int active_flags) { _fuse__F21((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub6(unsigned int active_flags) { _fuse__F0((ASTNode*) this, active_flags); }

void StmtList::__stub7(unsigned int active_flags) { _fuse__F0_F1_F3_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub7(unsigned int active_flags) { _fuse__F21_F22_F24_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub7(unsigned int active_flags) { _fuse__F0_F1_F3_F2_F4_F5((ASTNode*) this, active_flags); }

void Stmt::__stub8(unsigned int active_flags) { _fuse__F1_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub8(unsigned int active_flags) { _fuse__F28_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub8(unsigned int active_flags) { _fuse__F34_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub8(unsigned int active_flags) { _fuse__F1_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub8(unsigned int active_flags) { _fuse__F1_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub8(unsigned int active_flags) { _fuse__F40_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub9(unsigned int active_flags) { _fuse__F1_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub9(unsigned int active_flags) { _fuse__F1_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub9(unsigned int active_flags) { _fuse__F1_F43((ASTNode*) this, active_flags); }
void BinaryExpr::__stub9(unsigned int active_flags) { _fuse__F45_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub9(unsigned int active_flags) { _fuse__F49_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub10(unsigned int active_flags) { _fuse__F1_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub10(unsigned int active_flags) { _fuse__F22_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub10(unsigned int active_flags) { _fuse__F1_F3_F2((ASTNode*) this, active_flags); }

void StmtList::__stub11(unsigned int active_flags) { _fuse__F1_F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub11(unsigned int active_flags) { _fuse__F22_F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub11(unsigned int active_flags) { _fuse__F1_F3_F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub12(unsigned int active_flags) { _fuse__F1_F3_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub12(unsigned int active_flags) { _fuse__F28_F30_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub12(unsigned int active_flags) { _fuse__F34_F36_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub12(unsigned int active_flags) { _fuse__F1_F3_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub12(unsigned int active_flags) { _fuse__F1_F3_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub12(unsigned int active_flags) { _fuse__F40_F41_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub13(unsigned int active_flags) { _fuse__F1_F3_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub13(unsigned int active_flags) { _fuse__F1_F3_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub13(unsigned int active_flags) { _fuse__F1_F43_F43((ASTNode*) this, active_flags); }
void BinaryExpr::__stub13(unsigned int active_flags) { _fuse__F45_F46_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub13(unsigned int active_flags) { _fuse__F49_F50_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub14(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub14(unsigned int active_flags) { _fuse__F22_F24_F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub14(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub15(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub15(unsigned int active_flags) { _fuse__F28_F30_F30_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub15(unsigned int active_flags) { _fuse__F34_F36_F36_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub15(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub15(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub15(unsigned int active_flags) { _fuse__F40_F41_F41_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub16(unsigned int active_flags) { _fuse__F1_F3_F3_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub16(unsigned int active_flags) { _fuse__F1_F3_F3_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub16(unsigned int active_flags) { _fuse__F1_F43_F43_F43((ASTNode*) this, active_flags); }
void BinaryExpr::__stub16(unsigned int active_flags) { _fuse__F45_F46_F46_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub16(unsigned int active_flags) { _fuse__F49_F50_F50_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub17(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub17(unsigned int active_flags) { _fuse__F22_F24_F24_F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub17(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub18(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub18(unsigned int active_flags) { _fuse__F28_F30_F30_F30_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub18(unsigned int active_flags) { _fuse__F34_F36_F36_F36_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub18(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub18(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub18(unsigned int active_flags) { _fuse__F40_F41_F41_F41_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub19(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub19(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub19(unsigned int active_flags) { _fuse__F1_F43_F43_F43_F43((ASTNode*) this, active_flags); }
void BinaryExpr::__stub19(unsigned int active_flags) { _fuse__F45_F46_F46_F46_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub19(unsigned int active_flags) { _fuse__F49_F50_F50_F50_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub20(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub20(unsigned int active_flags) { _fuse__F22_F24_F24_F24_F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub20(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub21(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub21(unsigned int active_flags) { _fuse__F28_F30_F30_F30_F30_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub21(unsigned int active_flags) { _fuse__F34_F36_F36_F36_F36_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub21(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub21(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub21(unsigned int active_flags) { _fuse__F40_F41_F41_F41_F41_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub22(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub22(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub22(unsigned int active_flags) { _fuse__F1_F43_F43_F43_F43_F43((ASTNode*) this, active_flags); }
void BinaryExpr::__stub22(unsigned int active_flags) { _fuse__F45_F46_F46_F46_F46_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub22(unsigned int active_flags) { _fuse__F49_F50_F50_F50_F50_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub23(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void StmtListInner::__stub23(unsigned int active_flags) { _fuse__F22_F24_F24_F24_F24_F24((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub23(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }

void Stmt::__stub24(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void AssignStmt::__stub24(unsigned int active_flags) { _fuse__F28_F30_F30_F30_F30_F30((AssignStmt*) this, active_flags); }
void IfStmt::__stub24(unsigned int active_flags) { _fuse__F34_F36_F36_F36_F36_F36((IfStmt*) this, active_flags); }
void IncrStmt::__stub24(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void DecrStmt::__stub24(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void ReturnStmt::__stub24(unsigned int active_flags) { _fuse__F40_F41_F41_F41_F41_F41((ReturnStmt*) this, active_flags); }

void StmtList::__stub25(unsigned int active_flags) { _fuse__F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub25(unsigned int active_flags) { _fuse__F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub25(unsigned int active_flags) { _fuse__F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub26(unsigned int active_flags) { _fuse__F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub26(unsigned int active_flags) { _fuse__F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub26(unsigned int active_flags) { _fuse__F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub26(unsigned int active_flags) { _fuse__F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub26(unsigned int active_flags) { _fuse__F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub26(unsigned int active_flags) { _fuse__F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub27(unsigned int active_flags) { _fuse__F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub27(unsigned int active_flags) { _fuse__F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub27(unsigned int active_flags) { _fuse__F43((VarRefExpr*) this, active_flags); }
void BinaryExpr::__stub27(unsigned int active_flags) { _fuse__F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub27(unsigned int active_flags) { _fuse__F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub28(unsigned int active_flags) { _fuse__F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub28(unsigned int active_flags) { _fuse__F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub28(unsigned int active_flags) { _fuse__F3_F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub29(unsigned int active_flags) { _fuse__F3_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub29(unsigned int active_flags) { _fuse__F30_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub29(unsigned int active_flags) { _fuse__F36_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub29(unsigned int active_flags) { _fuse__F3_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub29(unsigned int active_flags) { _fuse__F3_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub29(unsigned int active_flags) { _fuse__F41_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub30(unsigned int active_flags) { _fuse__F3_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub30(unsigned int active_flags) { _fuse__F3_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub30(unsigned int active_flags) { _fuse__F43_F43((VarRefExpr*) this, active_flags); }
void BinaryExpr::__stub30(unsigned int active_flags) { _fuse__F46_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub30(unsigned int active_flags) { _fuse__F50_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub31(unsigned int active_flags) { _fuse__F3_F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub31(unsigned int active_flags) { _fuse__F24_F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub31(unsigned int active_flags) { _fuse__F3_F3_F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub32(unsigned int active_flags) { _fuse__F3_F3_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub32(unsigned int active_flags) { _fuse__F30_F30_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub32(unsigned int active_flags) { _fuse__F36_F36_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub32(unsigned int active_flags) { _fuse__F3_F3_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub32(unsigned int active_flags) { _fuse__F3_F3_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub32(unsigned int active_flags) { _fuse__F41_F41_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub33(unsigned int active_flags) { _fuse__F3_F3_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub33(unsigned int active_flags) { _fuse__F3_F3_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub33(unsigned int active_flags) { _fuse__F43_F43_F43((VarRefExpr*) this, active_flags); }
void BinaryExpr::__stub33(unsigned int active_flags) { _fuse__F46_F46_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub33(unsigned int active_flags) { _fuse__F50_F50_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub34(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub34(unsigned int active_flags) { _fuse__F24_F24_F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub34(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub35(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub35(unsigned int active_flags) { _fuse__F30_F30_F30_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub35(unsigned int active_flags) { _fuse__F36_F36_F36_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub35(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub35(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub35(unsigned int active_flags) { _fuse__F41_F41_F41_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub36(unsigned int active_flags) { _fuse__F3_F3_F3_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub36(unsigned int active_flags) { _fuse__F3_F3_F3_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub36(unsigned int active_flags) { _fuse__F43_F43_F43_F43((VarRefExpr*) this, active_flags); }
void BinaryExpr::__stub36(unsigned int active_flags) { _fuse__F46_F46_F46_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub36(unsigned int active_flags) { _fuse__F50_F50_F50_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub37(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub37(unsigned int active_flags) { _fuse__F24_F24_F24_F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub37(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }

void Stmt::__stub38(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void AssignStmt::__stub38(unsigned int active_flags) { _fuse__F30_F30_F30_F30_F30_F29((AssignStmt*) this, active_flags); }
void IfStmt::__stub38(unsigned int active_flags) { _fuse__F36_F36_F36_F36_F36_F35((IfStmt*) this, active_flags); }
void IncrStmt::__stub38(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void DecrStmt::__stub38(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void ReturnStmt::__stub38(unsigned int active_flags) { _fuse__F41_F41_F41_F41_F41_F2((ASTNode*) this, active_flags); }

void Expr::__stub39(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void ConstantExpr::__stub39(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void VarRefExpr::__stub39(unsigned int active_flags) { _fuse__F43_F43_F43_F43_F43((VarRefExpr*) this, active_flags); }
void BinaryExpr::__stub39(unsigned int active_flags) { _fuse__F46_F46_F46_F46_F46((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub39(unsigned int active_flags) { _fuse__F50_F50_F50_F50_F50((UnaryExpr*) this, active_flags); }

void StmtList::__stub40(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void StmtListInner::__stub40(unsigned int active_flags) { _fuse__F24_F24_F24_F24_F24((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub40(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }

void Stmt::__stub41(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void AssignStmt::__stub41(unsigned int active_flags) { _fuse__F30_F30_F30_F30_F30((AssignStmt*) this, active_flags); }
void IfStmt::__stub41(unsigned int active_flags) { _fuse__F36_F36_F36_F36_F36((IfStmt*) this, active_flags); }
void IncrStmt::__stub41(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void DecrStmt::__stub41(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void ReturnStmt::__stub41(unsigned int active_flags) { _fuse__F41_F41_F41_F41_F41((ReturnStmt*) this, active_flags); }

void StmtList::__stub42(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub42(unsigned int active_flags) { _fuse__F21_F22_F24_F24_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub42(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }

void StmtList::__stub43(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub43(unsigned int active_flags) { _fuse__F21_F22_F24_F24_F24_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub43(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }

void StmtList::__stub44(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }
void StmtListInner::__stub44(unsigned int active_flags) { _fuse__F21_F22_F24_F24_F24_F24_F23_F25((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub44(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }

void StmtList::__stub45(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }
void StmtListInner::__stub45(unsigned int active_flags) { _fuse__F21_F22_F24_F24_F24_F24_F24_F23((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub45(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F3_F3_F3_F2((ASTNode*) this, active_flags); }

void StmtList::__stub46(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }
void StmtListInner::__stub46(unsigned int active_flags) { _fuse__F21_F22_F24_F24_F24_F24_F24((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub46(unsigned int active_flags) { _fuse__F0_F1_F3_F3_F3_F3_F3((ASTNode*) this, active_flags); }

void Stmt::__stub47(unsigned int active_flags) { _fuse__F4((ASTNode*) this, active_flags); }
void AssignStmt::__stub47(unsigned int active_flags) { _fuse__F31((AssignStmt*) this, active_flags); }
void IfStmt::__stub47(unsigned int active_flags) { _fuse__F37((IfStmt*) this, active_flags); }
void IncrStmt::__stub47(unsigned int active_flags) { _fuse__F4((ASTNode*) this, active_flags); }
void DecrStmt::__stub47(unsigned int active_flags) { _fuse__F4((ASTNode*) this, active_flags); }
void ReturnStmt::__stub47(unsigned int active_flags) { _fuse__F42((ReturnStmt*) this, active_flags); }

void Expr::__stub48(unsigned int active_flags) { _fuse__F4((ASTNode*) this, active_flags); }
void ConstantExpr::__stub48(unsigned int active_flags) { _fuse__F4((ASTNode*) this, active_flags); }
void VarRefExpr::__stub48(unsigned int active_flags) { _fuse__F4((ASTNode*) this, active_flags); }
void BinaryExpr::__stub48(unsigned int active_flags) { _fuse__F47((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub48(unsigned int active_flags) { _fuse__F51((UnaryExpr*) this, active_flags); }

void StmtList::__stub49(unsigned int active_flags) { _fuse__F4((ASTNode*) this, active_flags); }
void StmtListInner::__stub49(unsigned int active_flags) { _fuse__F25((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub49(unsigned int active_flags) { _fuse__F4((ASTNode*) this, active_flags); }

void Stmt::__stub50(unsigned int active_flags) { _fuse__F4_F5((ASTNode*) this, active_flags); }
void AssignStmt::__stub50(unsigned int active_flags) { _fuse__F31_F32((AssignStmt*) this, active_flags); }
void IfStmt::__stub50(unsigned int active_flags) { _fuse__F37_F38((IfStmt*) this, active_flags); }
void IncrStmt::__stub50(unsigned int active_flags) { _fuse__F4_F5((ASTNode*) this, active_flags); }
void DecrStmt::__stub50(unsigned int active_flags) { _fuse__F4_F5((ASTNode*) this, active_flags); }
void ReturnStmt::__stub50(unsigned int active_flags) { _fuse__F42_F5((ASTNode*) this, active_flags); }

void StmtList::__stub51(unsigned int active_flags) { _fuse__F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub51(unsigned int active_flags) { _fuse__F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub51(unsigned int active_flags) { _fuse__F4_F5((ASTNode*) this, active_flags); }

void StmtList::__stub52(unsigned int active_flags) { _fuse__F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub52(unsigned int active_flags) { _fuse__F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub52(unsigned int active_flags) { _fuse__F5((ASTNode*) this, active_flags); }

void Stmt::__stub53(unsigned int active_flags) { _fuse__F5((ASTNode*) this, active_flags); }
void AssignStmt::__stub53(unsigned int active_flags) { _fuse__F32((AssignStmt*) this, active_flags); }
void IfStmt::__stub53(unsigned int active_flags) { _fuse__F38((IfStmt*) this, active_flags); }
void IncrStmt::__stub53(unsigned int active_flags) { _fuse__F5((ASTNode*) this, active_flags); }
void DecrStmt::__stub53(unsigned int active_flags) { _fuse__F5((ASTNode*) this, active_flags); }
void ReturnStmt::__stub53(unsigned int active_flags) { _fuse__F5((ASTNode*) this, active_flags); }

void Stmt::__stub54(unsigned int active_flags) { _fuse__F1_F2_F4_F5((ASTNode*) this, active_flags); }
void AssignStmt::__stub54(unsigned int active_flags) { _fuse__F28_F29_F31_F32((AssignStmt*) this, active_flags); }
void IfStmt::__stub54(unsigned int active_flags) { _fuse__F34_F35_F37_F38((IfStmt*) this, active_flags); }
void IncrStmt::__stub54(unsigned int active_flags) { _fuse__F1_F2_F4_F5((ASTNode*) this, active_flags); }
void DecrStmt::__stub54(unsigned int active_flags) { _fuse__F1_F2_F4_F5((ASTNode*) this, active_flags); }
void ReturnStmt::__stub54(unsigned int active_flags) { _fuse__F40_F2_F42_F5((ASTNode*) this, active_flags); }

void Expr::__stub55(unsigned int active_flags) { _fuse__F1_F4((ASTNode*) this, active_flags); }
void ConstantExpr::__stub55(unsigned int active_flags) { _fuse__F1_F4((ASTNode*) this, active_flags); }
void VarRefExpr::__stub55(unsigned int active_flags) { _fuse__F1_F4((ASTNode*) this, active_flags); }
void BinaryExpr::__stub55(unsigned int active_flags) { _fuse__F45_F47((BinaryExpr*) this, active_flags); }
void UnaryExpr::__stub55(unsigned int active_flags) { _fuse__F49_F51((UnaryExpr*) this, active_flags); }

void StmtList::__stub56(unsigned int active_flags) { _fuse__F1_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub56(unsigned int active_flags) { _fuse__F22_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub56(unsigned int active_flags) { _fuse__F1_F2_F4_F5((ASTNode*) this, active_flags); }

void StmtList::__stub57(unsigned int active_flags) { _fuse__F1_F3_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub57(unsigned int active_flags) { _fuse__F22_F24_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub57(unsigned int active_flags) { _fuse__F1_F3_F2_F4_F5((ASTNode*) this, active_flags); }

void StmtList::__stub58(unsigned int active_flags) { _fuse__F1_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub58(unsigned int active_flags) { _fuse__F22_F24_F24_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub58(unsigned int active_flags) { _fuse__F1_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }

void StmtList::__stub59(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub59(unsigned int active_flags) { _fuse__F22_F24_F24_F24_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub59(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }

void StmtList::__stub60(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }
void StmtListInner::__stub60(unsigned int active_flags) { _fuse__F22_F24_F24_F24_F24_F23_F25_F26((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub60(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F2_F4_F5((ASTNode*) this, active_flags); }

void StmtList::__stub61(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }
void StmtListInner::__stub61(unsigned int active_flags) { _fuse__F22_F24_F24_F24_F24_F24_F23_F25((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub61(unsigned int active_flags) { _fuse__F1_F3_F3_F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }

void StmtList::__stub62(unsigned int active_flags) { _fuse__F3_F2_F4((ASTNode*) this, active_flags); }
void StmtListInner::__stub62(unsigned int active_flags) { _fuse__F24_F23_F25((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub62(unsigned int active_flags) { _fuse__F3_F2_F4((ASTNode*) this, active_flags); }

void StmtList::__stub63(unsigned int active_flags) { _fuse__F3_F3_F2_F4((ASTNode*) this, active_flags); }
void StmtListInner::__stub63(unsigned int active_flags) { _fuse__F24_F24_F23_F25((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub63(unsigned int active_flags) { _fuse__F3_F3_F2_F4((ASTNode*) this, active_flags); }

void StmtList::__stub64(unsigned int active_flags) { _fuse__F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }
void StmtListInner::__stub64(unsigned int active_flags) { _fuse__F24_F24_F24_F23_F25((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub64(unsigned int active_flags) { _fuse__F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }

void StmtList::__stub65(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }
void StmtListInner::__stub65(unsigned int active_flags) { _fuse__F24_F24_F24_F24_F23_F25((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub65(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }

void StmtList::__stub66(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }
void StmtListInner::__stub66(unsigned int active_flags) { _fuse__F24_F24_F24_F24_F24_F23_F25((StmtListInner*) this, active_flags); }
void StmtListEnd::__stub66(unsigned int active_flags) { _fuse__F3_F3_F3_F3_F3_F2_F4((ASTNode*) this, active_flags); }

