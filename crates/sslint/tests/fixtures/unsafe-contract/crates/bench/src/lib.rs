pub mod raw;
