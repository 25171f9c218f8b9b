module graphzeppelin/benchmark

go 1.24

require graphzeppelin v0.0.0

replace graphzeppelin => ../
