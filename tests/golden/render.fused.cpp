void _fuse__F0_F1_F2_F3_F4(Document* _r, unsigned int active_flags) {
  Document* _r_f0 = (Document*)(_r);
  Document* _r_f1 = (Document*)(_r);
  Document* _r_f2 = (Document*)(_r);
  Document* _r_f3 = (Document*)(_r);
  Document* _r_f4 = (Document*)(_r);
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
    _r_f0->Pages->__stub1(call_flags);
  }
}

void _fuse__F5_F6_F7_F8_F9(PageList* _r, unsigned int active_flags) {
  PageList* _r_f0 = (PageList*)(_r);
  PageList* _r_f1 = (PageList*)(_r);
  PageList* _r_f2 = (PageList*)(_r);
  PageList* _r_f3 = (PageList*)(_r);
  PageList* _r_f4 = (PageList*)(_r);
}

void _fuse__F10_F11_F12_F13_F14(PageListInner* _r, unsigned int active_flags) {
  PageListInner* _r_f0 = (PageListInner*)(_r);
  PageListInner* _r_f1 = (PageListInner*)(_r);
  PageListInner* _r_f2 = (PageListInner*)(_r);
  PageListInner* _r_f3 = (PageListInner*)(_r);
  PageListInner* _r_f4 = (PageListInner*)(_r);
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
    _r_f0->P->__stub2(call_flags);
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
  if (active_flags & 0b1000) {
    _r_f3->TotalHeight = (_r_f3->P->Height + _r_f3->Next->TotalHeight);
  }
}

void _fuse__F15_F16_F17_F18_F19(Page* _r, unsigned int active_flags) {
  Page* _r_f0 = (Page*)(_r);
  Page* _r_f1 = (Page*)(_r);
  Page* _r_f2 = (Page*)(_r);
  Page* _r_f3 = (Page*)(_r);
  Page* _r_f4 = (Page*)(_r);
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
    _r_f0->Content->__stub3(call_flags);
  }
  if (active_flags & 0b10) {
    _r_f1->Width = _t1_avail;
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = (_r_f3->Content->Height + (2 * PAGE_MARGIN));
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F20_F21_F22_F23_F24(Element* _r, unsigned int active_flags) {
  Element* _r_f0 = (Element*)(_r);
  Element* _r_f1 = (Element*)(_r);
  Element* _r_f2 = (Element*)(_r);
  Element* _r_f3 = (Element*)(_r);
  Element* _r_f4 = (Element*)(_r);
}

void _fuse__F25_F26_F27_F28_F29(TextBox* _r, unsigned int active_flags) {
  TextBox* _r_f0 = (TextBox*)(_r);
  TextBox* _r_f1 = (TextBox*)(_r);
  TextBox* _r_f2 = (TextBox*)(_r);
  TextBox* _r_f3 = (TextBox*)(_r);
  TextBox* _r_f4 = (TextBox*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = (_r_f0->Text.Length * CHAR_WIDTH);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->WMode == 1)) {
      _r_f1->Width = ((_t1_avail * _r_f1->RelWidth) / 100);
    } else {
      _r_f1->Width = _r_f1->FlexWidth;
      if ((_r_f1->Width > _t1_avail)) {
        _r_f1->Width = _t1_avail;
      }
    }
  }
  if (active_flags & 0b100) {
    _r_f2->FontSize = _t2_size;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->FontOverride > 0)) {
      _r_f2->FontSize = _r_f2->FontOverride;
    }
  }
  if (active_flags & 0b1000) {
    int _t3_lines = ((((_r_f3->Text.Length * CHAR_WIDTH) + _r_f3->Width) - 1) / _r_f3->Width);
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = (((_t3_lines * LINE_HEIGHT) * _r_f3->FontSize) / 10);
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F25_F26_F30_F28_F29(TextBox* _r, unsigned int active_flags) {
  TextBox* _r_f0 = (TextBox*)(_r);
  TextBox* _r_f1 = (TextBox*)(_r);
  Link* _r_f2 = (Link*)(_r);
  TextBox* _r_f3 = (TextBox*)(_r);
  TextBox* _r_f4 = (TextBox*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = (_r_f0->Text.Length * CHAR_WIDTH);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->WMode == 1)) {
      _r_f1->Width = ((_t1_avail * _r_f1->RelWidth) / 100);
    } else {
      _r_f1->Width = _r_f1->FlexWidth;
      if ((_r_f1->Width > _t1_avail)) {
        _r_f1->Width = _t1_avail;
      }
    }
  }
  if (active_flags & 0b100) {
    _r_f2->FontSize = (_t2_size + 1);
  }
  if (active_flags & 0b100) {
    if ((_r_f2->FontOverride > 0)) {
      _r_f2->FontSize = _r_f2->FontOverride;
    }
  }
  if (active_flags & 0b1000) {
    int _t3_lines = ((((_r_f3->Text.Length * CHAR_WIDTH) + _r_f3->Width) - 1) / _r_f3->Width);
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = (((_t3_lines * LINE_HEIGHT) * _r_f3->FontSize) / 10);
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F31_F32_F33_F34_F35(Image* _r, unsigned int active_flags) {
  Image* _r_f0 = (Image*)(_r);
  Image* _r_f1 = (Image*)(_r);
  Image* _r_f2 = (Image*)(_r);
  Image* _r_f3 = (Image*)(_r);
  Image* _r_f4 = (Image*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = _r_f0->NativeWidth;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->WMode == 1)) {
      _r_f1->Width = ((_t1_avail * _r_f1->RelWidth) / 100);
    } else {
      _r_f1->Width = _r_f1->FlexWidth;
      if ((_r_f1->Width > _t1_avail)) {
        _r_f1->Width = _t1_avail;
      }
    }
  }
  if (active_flags & 0b100) {
    _r_f2->FontSize = _t2_size;
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = ((_r_f3->NativeHeight * _r_f3->Width) / _r_f3->NativeWidth);
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F36_F37_F38_F39_F40(List* _r, unsigned int active_flags) {
  List* _r_f0 = (List*)(_r);
  List* _r_f1 = (List*)(_r);
  List* _r_f2 = (List*)(_r);
  List* _r_f3 = (List*)(_r);
  List* _r_f4 = (List*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = ((_r_f0->ItemLen * CHAR_WIDTH) + (2 * CHAR_WIDTH));
  }
  if (active_flags & 0b10) {
    _r_f1->Width = _r_f1->FlexWidth;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->Width > _t1_avail)) {
      _r_f1->Width = _t1_avail;
    }
  }
  if (active_flags & 0b100) {
    _r_f2->FontSize = _t2_size;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->FontOverride > 0)) {
      _r_f2->FontSize = _r_f2->FontOverride;
    }
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = (((_r_f3->Items * LINE_HEIGHT) * _r_f3->FontSize) / 10);
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F41_F42_F43_F44_F45(Header* _r, unsigned int active_flags) {
  Header* _r_f0 = (Header*)(_r);
  Header* _r_f1 = (Header*)(_r);
  Header* _r_f2 = (Header*)(_r);
  Header* _r_f3 = (Header*)(_r);
  Header* _r_f4 = (Header*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = ((_r_f0->Title.Length * CHAR_WIDTH) * 2);
  }
  if (active_flags & 0b10) {
    _r_f1->Width = _t1_avail;
  }
  if (active_flags & 0b100) {
    _r_f2->FontSize = (_t2_size * 2);
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = (((2 * LINE_HEIGHT) * _r_f3->FontSize) / 10);
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F46_F47_F48_F49_F50(Footer* _r, unsigned int active_flags) {
  Footer* _r_f0 = (Footer*)(_r);
  Footer* _r_f1 = (Footer*)(_r);
  Footer* _r_f2 = (Footer*)(_r);
  Footer* _r_f3 = (Footer*)(_r);
  Footer* _r_f4 = (Footer*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = (6 * CHAR_WIDTH);
  }
  if (active_flags & 0b10) {
    _r_f1->Width = _t1_avail;
  }
  if (active_flags & 0b100) {
    _r_f2->FontSize = (_t2_size - 2);
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = ((LINE_HEIGHT * _r_f3->FontSize) / 10);
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F51_F52_F53_F54_F55(HorizontalContainer* _r, unsigned int active_flags) {
  HorizontalContainer* _r_f0 = (HorizontalContainer*)(_r);
  HorizontalContainer* _r_f1 = (HorizontalContainer*)(_r);
  HorizontalContainer* _r_f2 = (HorizontalContainer*)(_r);
  HorizontalContainer* _r_f3 = (HorizontalContainer*)(_r);
  HorizontalContainer* _r_f4 = (HorizontalContainer*)(_r);
  if (active_flags & 0b100) {
    int _t2_s = _t2_size;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->FontOverride > 0)) {
      _t2_s = _r_f2->FontOverride;
    }
  }
  if (active_flags & 0b101) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Items->__stub4(call_flags);
  }
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = _r_f0->Items->TotalFlex;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->WMode == 1)) {
      _r_f1->Width = ((_t1_avail * _r_f1->RelWidth) / 100);
    } else {
      _r_f1->Width = _r_f1->FlexWidth;
      if ((_r_f1->Width > _t1_avail)) {
        _r_f1->Width = _t1_avail;
      }
    }
  }
  if (active_flags & 0b11010) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    _r_f1->Items->__stub6(call_flags);
  }
  if (active_flags & 0b100) {
    _r_f2->FontSize = _t2_s;
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = _r_f3->Items->TotalHeight;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F61_F63(ElementList* _r, unsigned int active_flags) {
  ElementList* _r_f0 = (ElementList*)(_r);
  ElementList* _r_f1 = (ElementList*)(_r);
}

void _fuse__F66_F68(ElementListInner* _r, unsigned int active_flags) {
  ElementListInner* _r_f0 = (ElementListInner*)(_r);
  ElementListInner* _r_f1 = (ElementListInner*)(_r);
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Item->__stub5(call_flags);
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub4(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->Horiz == 1)) {
      _r_f0->TotalFlex = (_r_f0->Item->FlexWidth + _r_f0->Next->TotalFlex);
    } else {
      _r_f0->TotalFlex = _r_f0->Item->FlexWidth;
      if ((_r_f0->Next->TotalFlex > _r_f0->TotalFlex)) {
        _r_f0->TotalFlex = _r_f0->Next->TotalFlex;
      }
    }
  }
}

void _fuse__F20_F22(Element* _r, unsigned int active_flags) {
  Element* _r_f0 = (Element*)(_r);
  Element* _r_f1 = (Element*)(_r);
}

void _fuse__F25_F27(TextBox* _r, unsigned int active_flags) {
  TextBox* _r_f0 = (TextBox*)(_r);
  TextBox* _r_f1 = (TextBox*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = (_r_f0->Text.Length * CHAR_WIDTH);
  }
  if (active_flags & 0b10) {
    _r_f1->FontSize = _t1_size;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->FontOverride > 0)) {
      _r_f1->FontSize = _r_f1->FontOverride;
    }
  }
}

void _fuse__F25_F30(TextBox* _r, unsigned int active_flags) {
  TextBox* _r_f0 = (TextBox*)(_r);
  Link* _r_f1 = (Link*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = (_r_f0->Text.Length * CHAR_WIDTH);
  }
  if (active_flags & 0b10) {
    _r_f1->FontSize = (_t1_size + 1);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->FontOverride > 0)) {
      _r_f1->FontSize = _r_f1->FontOverride;
    }
  }
}

void _fuse__F31_F33(Image* _r, unsigned int active_flags) {
  Image* _r_f0 = (Image*)(_r);
  Image* _r_f1 = (Image*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = _r_f0->NativeWidth;
  }
  if (active_flags & 0b10) {
    _r_f1->FontSize = _t1_size;
  }
}

void _fuse__F36_F38(List* _r, unsigned int active_flags) {
  List* _r_f0 = (List*)(_r);
  List* _r_f1 = (List*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = ((_r_f0->ItemLen * CHAR_WIDTH) + (2 * CHAR_WIDTH));
  }
  if (active_flags & 0b10) {
    _r_f1->FontSize = _t1_size;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->FontOverride > 0)) {
      _r_f1->FontSize = _r_f1->FontOverride;
    }
  }
}

void _fuse__F41_F43(Header* _r, unsigned int active_flags) {
  Header* _r_f0 = (Header*)(_r);
  Header* _r_f1 = (Header*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = ((_r_f0->Title.Length * CHAR_WIDTH) * 2);
  }
  if (active_flags & 0b10) {
    _r_f1->FontSize = (_t1_size * 2);
  }
}

void _fuse__F46_F48(Footer* _r, unsigned int active_flags) {
  Footer* _r_f0 = (Footer*)(_r);
  Footer* _r_f1 = (Footer*)(_r);
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = (6 * CHAR_WIDTH);
  }
  if (active_flags & 0b10) {
    _r_f1->FontSize = (_t1_size - 2);
  }
}

void _fuse__F51_F53(HorizontalContainer* _r, unsigned int active_flags) {
  HorizontalContainer* _r_f0 = (HorizontalContainer*)(_r);
  HorizontalContainer* _r_f1 = (HorizontalContainer*)(_r);
  if (active_flags & 0b10) {
    int _t1_s = _t1_size;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->FontOverride > 0)) {
      _t1_s = _r_f1->FontOverride;
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Items->__stub4(call_flags);
  }
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = _r_f0->Items->TotalFlex;
  }
  if (active_flags & 0b10) {
    _r_f1->FontSize = _t1_s;
  }
}

void _fuse__F56_F58(VerticalContainer* _r, unsigned int active_flags) {
  VerticalContainer* _r_f0 = (VerticalContainer*)(_r);
  VerticalContainer* _r_f1 = (VerticalContainer*)(_r);
  if (active_flags & 0b10) {
    int _t1_s = _t1_size;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->FontOverride > 0)) {
      _t1_s = _r_f1->FontOverride;
    }
  }
  if (active_flags & 0b11) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Items->__stub4(call_flags);
  }
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = _r_f0->Items->TotalFlex;
  }
  if (active_flags & 0b10) {
    _r_f1->FontSize = _t1_s;
  }
}

void _fuse__F62_F64_F65(ElementList* _r, unsigned int active_flags) {
  ElementList* _r_f0 = (ElementList*)(_r);
  ElementList* _r_f1 = (ElementList*)(_r);
  ElementList* _r_f2 = (ElementList*)(_r);
}

void _fuse__F67_F69_F70(ElementListInner* _r, unsigned int active_flags) {
  ElementListInner* _r_f0 = (ElementListInner*)(_r);
  ElementListInner* _r_f1 = (ElementListInner*)(_r);
  ElementListInner* _r_f2 = (ElementListInner*)(_r);
  if (active_flags & 0b1) {
    int _t0_share = _t0_avail;
  }
  if (active_flags & 0b1) {
    int _t0_rest = _t0_avail;
  }
  if (active_flags & 0b1) {
    if ((_r_f0->Horiz == 1)) {
      _t0_share = ((_t0_avail * _r_f0->Item->FlexWidth) / _r_f0->TotalFlex);
      _t0_rest = (_t0_avail - _t0_share);
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
    _r_f0->Item->__stub7(call_flags);
  }
  if (active_flags & 0b100) {
    int _t2_nx = _t2_x;
  }
  if (active_flags & 0b100) {
    int _t2_ny = _t2_y;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->Horiz == 1)) {
      _t2_nx = (_t2_x + _r_f2->Item->Width);
    } else {
      _t2_ny = (_t2_y + _r_f2->Item->Height);
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
    _r_f0->Next->__stub6(call_flags);
  }
  if (active_flags & 0b10) {
    if ((_r_f1->Horiz == 1)) {
      _r_f1->TotalHeight = _r_f1->Item->Height;
      if ((_r_f1->Next->TotalHeight > _r_f1->TotalHeight)) {
        _r_f1->TotalHeight = _r_f1->Next->TotalHeight;
      }
    } else {
      _r_f1->TotalHeight = (_r_f1->Item->Height + _r_f1->Next->TotalHeight);
    }
  }
}

void _fuse__F21_F23_F24(Element* _r, unsigned int active_flags) {
  Element* _r_f0 = (Element*)(_r);
  Element* _r_f1 = (Element*)(_r);
  Element* _r_f2 = (Element*)(_r);
}

void _fuse__F26_F28_F29(TextBox* _r, unsigned int active_flags) {
  TextBox* _r_f0 = (TextBox*)(_r);
  TextBox* _r_f1 = (TextBox*)(_r);
  TextBox* _r_f2 = (TextBox*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->WMode == 1)) {
      _r_f0->Width = ((_t0_avail * _r_f0->RelWidth) / 100);
    } else {
      _r_f0->Width = _r_f0->FlexWidth;
      if ((_r_f0->Width > _t0_avail)) {
        _r_f0->Width = _t0_avail;
      }
    }
  }
  if (active_flags & 0b10) {
    int _t1_lines = ((((_r_f1->Text.Length * CHAR_WIDTH) + _r_f1->Width) - 1) / _r_f1->Width);
  }
  if (active_flags & 0b10) {
    _r_f1->Height = (((_t1_lines * LINE_HEIGHT) * _r_f1->FontSize) / 10);
  }
  if (active_flags & 0b100) {
    _r_f2->PosX = _t2_x;
  }
  if (active_flags & 0b100) {
    _r_f2->PosY = _t2_y;
  }
}

void _fuse__F32_F34_F35(Image* _r, unsigned int active_flags) {
  Image* _r_f0 = (Image*)(_r);
  Image* _r_f1 = (Image*)(_r);
  Image* _r_f2 = (Image*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->WMode == 1)) {
      _r_f0->Width = ((_t0_avail * _r_f0->RelWidth) / 100);
    } else {
      _r_f0->Width = _r_f0->FlexWidth;
      if ((_r_f0->Width > _t0_avail)) {
        _r_f0->Width = _t0_avail;
      }
    }
  }
  if (active_flags & 0b10) {
    _r_f1->Height = ((_r_f1->NativeHeight * _r_f1->Width) / _r_f1->NativeWidth);
  }
  if (active_flags & 0b100) {
    _r_f2->PosX = _t2_x;
  }
  if (active_flags & 0b100) {
    _r_f2->PosY = _t2_y;
  }
}

void _fuse__F37_F39_F40(List* _r, unsigned int active_flags) {
  List* _r_f0 = (List*)(_r);
  List* _r_f1 = (List*)(_r);
  List* _r_f2 = (List*)(_r);
  if (active_flags & 0b1) {
    _r_f0->Width = _r_f0->FlexWidth;
  }
  if (active_flags & 0b1) {
    if ((_r_f0->Width > _t0_avail)) {
      _r_f0->Width = _t0_avail;
    }
  }
  if (active_flags & 0b10) {
    _r_f1->Height = (((_r_f1->Items * LINE_HEIGHT) * _r_f1->FontSize) / 10);
  }
  if (active_flags & 0b100) {
    _r_f2->PosX = _t2_x;
  }
  if (active_flags & 0b100) {
    _r_f2->PosY = _t2_y;
  }
}

void _fuse__F42_F44_F45(Header* _r, unsigned int active_flags) {
  Header* _r_f0 = (Header*)(_r);
  Header* _r_f1 = (Header*)(_r);
  Header* _r_f2 = (Header*)(_r);
  if (active_flags & 0b1) {
    _r_f0->Width = _t0_avail;
  }
  if (active_flags & 0b10) {
    _r_f1->Height = (((2 * LINE_HEIGHT) * _r_f1->FontSize) / 10);
  }
  if (active_flags & 0b100) {
    _r_f2->PosX = _t2_x;
  }
  if (active_flags & 0b100) {
    _r_f2->PosY = _t2_y;
  }
}

void _fuse__F47_F49_F50(Footer* _r, unsigned int active_flags) {
  Footer* _r_f0 = (Footer*)(_r);
  Footer* _r_f1 = (Footer*)(_r);
  Footer* _r_f2 = (Footer*)(_r);
  if (active_flags & 0b1) {
    _r_f0->Width = _t0_avail;
  }
  if (active_flags & 0b10) {
    _r_f1->Height = ((LINE_HEIGHT * _r_f1->FontSize) / 10);
  }
  if (active_flags & 0b100) {
    _r_f2->PosX = _t2_x;
  }
  if (active_flags & 0b100) {
    _r_f2->PosY = _t2_y;
  }
}

void _fuse__F52_F54_F55(HorizontalContainer* _r, unsigned int active_flags) {
  HorizontalContainer* _r_f0 = (HorizontalContainer*)(_r);
  HorizontalContainer* _r_f1 = (HorizontalContainer*)(_r);
  HorizontalContainer* _r_f2 = (HorizontalContainer*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->WMode == 1)) {
      _r_f0->Width = ((_t0_avail * _r_f0->RelWidth) / 100);
    } else {
      _r_f0->Width = _r_f0->FlexWidth;
      if ((_r_f0->Width > _t0_avail)) {
        _r_f0->Width = _t0_avail;
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
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Items->__stub6(call_flags);
  }
  if (active_flags & 0b10) {
    _r_f1->Height = _r_f1->Items->TotalHeight;
  }
  if (active_flags & 0b100) {
    _r_f2->PosX = _t2_x;
  }
  if (active_flags & 0b100) {
    _r_f2->PosY = _t2_y;
  }
}

void _fuse__F57_F59_F60(VerticalContainer* _r, unsigned int active_flags) {
  VerticalContainer* _r_f0 = (VerticalContainer*)(_r);
  VerticalContainer* _r_f1 = (VerticalContainer*)(_r);
  VerticalContainer* _r_f2 = (VerticalContainer*)(_r);
  if (active_flags & 0b1) {
    if ((_r_f0->WMode == 1)) {
      _r_f0->Width = ((_t0_avail * _r_f0->RelWidth) / 100);
    } else {
      _r_f0->Width = _t0_avail;
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
    _r_f0->Items->__stub6(call_flags);
  }
  if (active_flags & 0b10) {
    _r_f1->Height = _r_f1->Items->TotalHeight;
  }
  if (active_flags & 0b100) {
    _r_f2->PosX = _t2_x;
  }
  if (active_flags & 0b100) {
    _r_f2->PosY = _t2_y;
  }
}

void _fuse__F56_F57_F58_F59_F60(VerticalContainer* _r, unsigned int active_flags) {
  VerticalContainer* _r_f0 = (VerticalContainer*)(_r);
  VerticalContainer* _r_f1 = (VerticalContainer*)(_r);
  VerticalContainer* _r_f2 = (VerticalContainer*)(_r);
  VerticalContainer* _r_f3 = (VerticalContainer*)(_r);
  VerticalContainer* _r_f4 = (VerticalContainer*)(_r);
  if (active_flags & 0b10) {
    if ((_r_f1->WMode == 1)) {
      _r_f1->Width = ((_t1_avail * _r_f1->RelWidth) / 100);
    } else {
      _r_f1->Width = _t1_avail;
    }
  }
  if (active_flags & 0b100) {
    int _t2_s = _t2_size;
  }
  if (active_flags & 0b100) {
    if ((_r_f2->FontOverride > 0)) {
      _t2_s = _r_f2->FontOverride;
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
    _r_f0->Items->__stub8(call_flags);
  }
  if (active_flags & 0b1) {
    _r_f0->FlexWidth = _r_f0->Items->TotalFlex;
  }
  if (active_flags & 0b100) {
    _r_f2->FontSize = _t2_s;
  }
  if (active_flags & 0b1000) {
    _r_f3->Height = _r_f3->Items->TotalHeight;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosX = _t4_x;
  }
  if (active_flags & 0b10000) {
    _r_f4->PosY = _t4_y;
  }
}

void _fuse__F61_F62_F63_F64_F65(ElementList* _r, unsigned int active_flags) {
  ElementList* _r_f0 = (ElementList*)(_r);
  ElementList* _r_f1 = (ElementList*)(_r);
  ElementList* _r_f2 = (ElementList*)(_r);
  ElementList* _r_f3 = (ElementList*)(_r);
  ElementList* _r_f4 = (ElementList*)(_r);
}

void _fuse__F66_F67_F68_F69_F70(ElementListInner* _r, unsigned int active_flags) {
  ElementListInner* _r_f0 = (ElementListInner*)(_r);
  ElementListInner* _r_f1 = (ElementListInner*)(_r);
  ElementListInner* _r_f2 = (ElementListInner*)(_r);
  ElementListInner* _r_f3 = (ElementListInner*)(_r);
  ElementListInner* _r_f4 = (ElementListInner*)(_r);
  if (active_flags & 0b101) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Item->__stub5(call_flags);
  }
  if (active_flags & 0b101) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 2));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 0));
    _r_f0->Next->__stub4(call_flags);
  }
  if (active_flags & 0b1) {
    if ((_r_f0->Horiz == 1)) {
      _r_f0->TotalFlex = (_r_f0->Item->FlexWidth + _r_f0->Next->TotalFlex);
    } else {
      _r_f0->TotalFlex = _r_f0->Item->FlexWidth;
      if ((_r_f0->Next->TotalFlex > _r_f0->TotalFlex)) {
        _r_f0->TotalFlex = _r_f0->Next->TotalFlex;
      }
    }
  }
  if (active_flags & 0b10) {
    int _t1_share = _t1_avail;
  }
  if (active_flags & 0b10) {
    int _t1_rest = _t1_avail;
  }
  if (active_flags & 0b10) {
    if ((_r_f1->Horiz == 1)) {
      _t1_share = ((_t1_avail * _r_f1->Item->FlexWidth) / _r_f1->TotalFlex);
      _t1_rest = (_t1_avail - _t1_share);
    }
  }
  if (active_flags & 0b11010) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    _r_f1->Item->__stub7(call_flags);
  }
  if (active_flags & 0b10000) {
    int _t4_nx = _t4_x;
  }
  if (active_flags & 0b10000) {
    int _t4_ny = _t4_y;
  }
  if (active_flags & 0b10000) {
    if ((_r_f4->Horiz == 1)) {
      _t4_nx = (_t4_x + _r_f4->Item->Width);
    } else {
      _t4_ny = (_t4_y + _r_f4->Item->Height);
    }
  }
  if (active_flags & 0b11010) /* call */ {
    unsigned int call_flags = 0;
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 4));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 3));
    call_flags <<= 1;
    call_flags |= (0b1 & (active_flags >> 1));
    _r_f1->Next->__stub6(call_flags);
  }
  if (active_flags & 0b1000) {
    if ((_r_f3->Horiz == 1)) {
      _r_f3->TotalHeight = _r_f3->Item->Height;
      if ((_r_f3->Next->TotalHeight > _r_f3->TotalHeight)) {
        _r_f3->TotalHeight = _r_f3->Next->TotalHeight;
      }
    } else {
      _r_f3->TotalHeight = (_r_f3->Item->Height + _r_f3->Next->TotalHeight);
    }
  }
}

void Document::__stub0(unsigned int active_flags) { _fuse__F0_F1_F2_F3_F4((Document*) this, active_flags); }

void PageList::__stub1(unsigned int active_flags) { _fuse__F5_F6_F7_F8_F9((PageList*) this, active_flags); }
void PageListInner::__stub1(unsigned int active_flags) { _fuse__F10_F11_F12_F13_F14((PageListInner*) this, active_flags); }
void PageListEnd::__stub1(unsigned int active_flags) { _fuse__F5_F6_F7_F8_F9((PageList*) this, active_flags); }

void Page::__stub2(unsigned int active_flags) { _fuse__F15_F16_F17_F18_F19((Page*) this, active_flags); }

void Element::__stub3(unsigned int active_flags) { _fuse__F20_F21_F22_F23_F24((Element*) this, active_flags); }
void TextBox::__stub3(unsigned int active_flags) { _fuse__F25_F26_F27_F28_F29((TextBox*) this, active_flags); }
void Link::__stub3(unsigned int active_flags) { _fuse__F25_F26_F30_F28_F29((TextBox*) this, active_flags); }
void Image::__stub3(unsigned int active_flags) { _fuse__F31_F32_F33_F34_F35((Image*) this, active_flags); }
void List::__stub3(unsigned int active_flags) { _fuse__F36_F37_F38_F39_F40((List*) this, active_flags); }
void Header::__stub3(unsigned int active_flags) { _fuse__F41_F42_F43_F44_F45((Header*) this, active_flags); }
void Footer::__stub3(unsigned int active_flags) { _fuse__F46_F47_F48_F49_F50((Footer*) this, active_flags); }
void HorizontalContainer::__stub3(unsigned int active_flags) { _fuse__F51_F52_F53_F54_F55((HorizontalContainer*) this, active_flags); }
void VerticalContainer::__stub3(unsigned int active_flags) { _fuse__F56_F57_F58_F59_F60((VerticalContainer*) this, active_flags); }

void ElementList::__stub4(unsigned int active_flags) { _fuse__F61_F63((ElementList*) this, active_flags); }
void ElementListInner::__stub4(unsigned int active_flags) { _fuse__F66_F68((ElementListInner*) this, active_flags); }
void ElementListEnd::__stub4(unsigned int active_flags) { _fuse__F61_F63((ElementList*) this, active_flags); }

void Element::__stub5(unsigned int active_flags) { _fuse__F20_F22((Element*) this, active_flags); }
void TextBox::__stub5(unsigned int active_flags) { _fuse__F25_F27((TextBox*) this, active_flags); }
void Link::__stub5(unsigned int active_flags) { _fuse__F25_F30((TextBox*) this, active_flags); }
void Image::__stub5(unsigned int active_flags) { _fuse__F31_F33((Image*) this, active_flags); }
void List::__stub5(unsigned int active_flags) { _fuse__F36_F38((List*) this, active_flags); }
void Header::__stub5(unsigned int active_flags) { _fuse__F41_F43((Header*) this, active_flags); }
void Footer::__stub5(unsigned int active_flags) { _fuse__F46_F48((Footer*) this, active_flags); }
void HorizontalContainer::__stub5(unsigned int active_flags) { _fuse__F51_F53((HorizontalContainer*) this, active_flags); }
void VerticalContainer::__stub5(unsigned int active_flags) { _fuse__F56_F58((VerticalContainer*) this, active_flags); }

void ElementList::__stub6(unsigned int active_flags) { _fuse__F62_F64_F65((ElementList*) this, active_flags); }
void ElementListInner::__stub6(unsigned int active_flags) { _fuse__F67_F69_F70((ElementListInner*) this, active_flags); }
void ElementListEnd::__stub6(unsigned int active_flags) { _fuse__F62_F64_F65((ElementList*) this, active_flags); }

void Element::__stub7(unsigned int active_flags) { _fuse__F21_F23_F24((Element*) this, active_flags); }
void TextBox::__stub7(unsigned int active_flags) { _fuse__F26_F28_F29((TextBox*) this, active_flags); }
void Link::__stub7(unsigned int active_flags) { _fuse__F26_F28_F29((TextBox*) this, active_flags); }
void Image::__stub7(unsigned int active_flags) { _fuse__F32_F34_F35((Image*) this, active_flags); }
void List::__stub7(unsigned int active_flags) { _fuse__F37_F39_F40((List*) this, active_flags); }
void Header::__stub7(unsigned int active_flags) { _fuse__F42_F44_F45((Header*) this, active_flags); }
void Footer::__stub7(unsigned int active_flags) { _fuse__F47_F49_F50((Footer*) this, active_flags); }
void HorizontalContainer::__stub7(unsigned int active_flags) { _fuse__F52_F54_F55((HorizontalContainer*) this, active_flags); }
void VerticalContainer::__stub7(unsigned int active_flags) { _fuse__F57_F59_F60((VerticalContainer*) this, active_flags); }

void ElementList::__stub8(unsigned int active_flags) { _fuse__F61_F62_F63_F64_F65((ElementList*) this, active_flags); }
void ElementListInner::__stub8(unsigned int active_flags) { _fuse__F66_F67_F68_F69_F70((ElementListInner*) this, active_flags); }
void ElementListEnd::__stub8(unsigned int active_flags) { _fuse__F61_F62_F63_F64_F65((ElementList*) this, active_flags); }

